"""Deterministic desk-scale simulator for privacy-preserving personalized
federated recommendation: contrastive pre-training, LDP-protected federated
training of an embedding-propagation recommender with clustered
personalization, and leave-one-out top-K evaluation."""

__version__ = "0.1.0"

from .data import (
    ClientGraph,
    InteractionDataset,
    SplitDataset,
    build_client_graph,
    density,
    leave_one_out_split,
    load_interactions,
)
from .gnn import (
    BipartiteGraph,
    EmbeddingTable,
    GradientUpdate,
    PropagationOperator,
    bpr_gradients,
    bpr_loss,
    propagate,
)
from .privacy import (
    ldp_randomize,
    mask_interacted_items,
    privacy_budget,
    pseudo_item_gradients,
    sample_pseudo_items,
)
from .config import ExperimentConfig, default_config
from .server import run_training

__all__ = [
    "BipartiteGraph",
    "ClientGraph",
    "EmbeddingTable",
    "ExperimentConfig",
    "GradientUpdate",
    "InteractionDataset",
    "PropagationOperator",
    "SplitDataset",
    "bpr_gradients",
    "bpr_loss",
    "build_client_graph",
    "default_config",
    "density",
    "ldp_randomize",
    "leave_one_out_split",
    "load_interactions",
    "mask_interacted_items",
    "privacy_budget",
    "propagate",
    "pseudo_item_gradients",
    "run_training",
    "sample_pseudo_items",
]
