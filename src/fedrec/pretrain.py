"""Contrastive warm-up of the embedding tables.

Two stochastically augmented views of the interaction graph are propagated
per epoch and an InfoNCE objective pulls each entity's two view embeddings
together against all other entities of the same type. Gradients flow through
propagation and readout (reusing the self-adjoint operator) but not through
the discrete mask/edge draws, which are resampled every epoch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from .data import SplitDataset, build_client_graph
from .gnn import (
    BipartiteGraph,
    EmbeddingTable,
    PropagationOperator,
    propagate,
    readout,
)
from .privacy import PrivacyConfig


@dataclass(frozen=True)
class AugmentationConfig:
    """Augmentation strengths; each one at its neutral value (keep
    probability 1, no added edges, zero noise) is off."""

    node_keep_prob: float = 0.9
    edge_add_count: int = 0
    noise_magnitude: float = 0.1
    temperature: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.node_keep_prob <= 1.0:
            raise ValueError("node_keep_prob must be in (0, 1]")
        if self.edge_add_count < 0:
            raise ValueError("edge_add_count must be >= 0")
        if self.noise_magnitude < 0:
            raise ValueError("noise_magnitude must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass(eq=False)
class GraphView:
    """An augmented graph: surviving-node masks plus the (possibly extended)
    edge list. Edges touching a dropped node are inert during propagation."""

    user_mask: np.ndarray
    item_mask: np.ndarray
    edges: tuple[tuple[int, int], ...]


def node_dropout_view(
    graph: BipartiteGraph, keep_prob: float, rng: np.random.Generator
) -> GraphView:
    """Keep each node independently with probability ``keep_prob``."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must be in (0, 1]")
    user_mask = rng.random(graph.n_users) < keep_prob
    item_mask = rng.random(graph.n_items) < keep_prob
    return GraphView(user_mask, item_mask, tuple(graph.edges))


def _sample_absent_edges(
    graph: BipartiteGraph, count: int, rng: np.random.Generator
) -> tuple[tuple[int, int], ...]:
    existing = set(graph.edges)
    available = graph.n_users * graph.n_items - len(existing)
    if count >= available:
        if count > available:
            warnings.warn(
                f"requested {count} new edges but only {available} non-edges exist",
                RuntimeWarning,
                stacklevel=3,
            )
        return tuple(
            (u, i)
            for u in range(graph.n_users)
            for i in range(graph.n_items)
            if (u, i) not in existing
        )
    added: set[tuple[int, int]] = set()
    while len(added) < count:
        pair = (int(rng.integers(graph.n_users)), int(rng.integers(graph.n_items)))
        if pair not in existing and pair not in added:
            added.add(pair)
    return tuple(sorted(added))


def noise_injection(
    table: EmbeddingTable, magnitude: float, rng: np.random.Generator
) -> EmbeddingTable:
    """Add a random direction of exact L2 length ``magnitude`` to every row."""
    if magnitude < 0:
        raise ValueError("magnitude must be >= 0")
    out = table.copy()
    for block in (out.users, out.items):
        delta = rng.normal(size=block.shape)
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        block += magnitude * (delta / norms)
    return out


def view_operator(view: GraphView, n_layers: int) -> PropagationOperator:
    """Propagation over the surviving subgraph, degrees recomputed."""
    edges = tuple(
        (u, i) for (u, i) in view.edges if view.user_mask[u] and view.item_mask[i]
    )
    return PropagationOperator(len(view.user_mask), len(view.item_mask), edges, n_layers)


@dataclass(eq=False)
class ViewPipeline:
    """One augmented forward pass, retaining what backprop needs."""

    view: GraphView
    operator: PropagationOperator
    final: EmbeddingTable

    def backprop(self, grad_final: EmbeddingTable) -> EmbeddingTable:
        """Gradient w.r.t. the raw input table for this view."""
        back = readout(propagate(self.operator, grad_final))
        return EmbeddingTable(
            back.users * self.view.user_mask[:, None],
            back.items * self.view.item_mask[:, None],
        )


def compose_view(
    graph: BipartiteGraph,
    table: EmbeddingTable,
    cfg: AugmentationConfig,
    n_layers: int,
    rng: np.random.Generator,
) -> ViewPipeline:
    """Apply every augmentation whose strength is not neutral, and propagate.

    Draw order per view: node masks (only when ``node_keep_prob < 1``), new
    edges (only when ``edge_add_count > 0``), noise (only when
    ``noise_magnitude > 0``); a neutral augmentation draws nothing. Dropped
    nodes are zeroed at layer 0 and their edges are inert, so a fully
    dropped graph propagates to all-zero embeddings.
    """
    if cfg.node_keep_prob < 1:
        dropped = node_dropout_view(graph, cfg.node_keep_prob, rng)
        user_mask, item_mask = dropped.user_mask, dropped.item_mask
    else:
        user_mask = np.ones(graph.n_users, dtype=bool)
        item_mask = np.ones(graph.n_items, dtype=bool)
    edges = tuple(graph.edges)
    if cfg.edge_add_count > 0:
        edges = edges + _sample_absent_edges(graph, cfg.edge_add_count, rng)
    noise_on = cfg.noise_magnitude > 0
    view = GraphView(user_mask, item_mask, edges)

    x0 = noise_injection(table, cfg.noise_magnitude, rng) if noise_on else table.copy()
    x0 = EmbeddingTable(
        x0.users * user_mask[:, None], x0.items * item_mask[:, None]
    )
    op = view_operator(view, n_layers)
    return ViewPipeline(view, op, readout(propagate(op, x0)))


def make_views(
    graph: BipartiteGraph,
    table: EmbeddingTable,
    cfg: AugmentationConfig,
    n_layers: int,
    rng: np.random.Generator,
) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Final embeddings of two independently augmented views."""
    r1, r2 = rng.spawn(2)
    return (
        compose_view(graph, table, cfg, n_layers, r1).final,
        compose_view(graph, table, cfg, n_layers, r2).final,
    )


def _normalized_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms)
    return x / safe[:, None], zero


def _entity_terms(a: np.ndarray, b: np.ndarray, tau: float):
    a_hat, zero_a = _normalized_rows(a)
    b_hat, zero_b = _normalized_rows(b)
    sims = a_hat @ b_hat.T
    terms = logsumexp(sims / tau, axis=1) - np.diag(sims) / tau
    return terms, bool(zero_a.any() or zero_b.any())


def infonce_terms(
    view1: EmbeddingTable, view2: EmbeddingTable, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user and per-item contrastive terms (each is >= 0).

    Term for entity u is log sum_v exp(cos(a_u, b_v)/tau) - cos(a_u, b_u)/tau
    with v ranging over the second view's rows of the same type. Zero-norm
    rows contribute similarity 0 to every pair and trigger a warning.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if view1.users.shape != view2.users.shape or view1.items.shape != view2.items.shape:
        raise ValueError("views must have matching row sets")
    user_terms, warn_u = _entity_terms(view1.users, view2.users, tau)
    item_terms, warn_i = _entity_terms(view1.items, view2.items, tau)
    if warn_u or warn_i:
        warnings.warn(
            "zero-norm embedding row; its similarities are treated as 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return user_terms, item_terms


def infonce_loss(view1: EmbeddingTable, view2: EmbeddingTable, tau: float) -> float:
    """Summed contrastive loss over users plus items."""
    user_terms, item_terms = infonce_terms(view1, view2, tau)
    return float(user_terms.sum() + item_terms.sum())


def _entity_grads(a: np.ndarray, b: np.ndarray, tau: float):
    a_hat, zero_a = _normalized_rows(a)
    b_hat, zero_b = _normalized_rows(b)
    na = np.where(zero_a, 1.0, np.linalg.norm(a, axis=1))
    nb = np.where(zero_b, 1.0, np.linalg.norm(b, axis=1))
    sims = a_hat @ b_hat.T
    probs = softmax(sims / tau, axis=1)
    w = (probs - np.eye(len(a))) / tau
    grad_a = (w @ b_hat - (w * sims).sum(axis=1)[:, None] * a_hat) / na[:, None]
    grad_b = (w.T @ a_hat - (w * sims).sum(axis=0)[:, None] * b_hat) / nb[:, None]
    grad_a[zero_a] = 0.0
    grad_b[zero_b] = 0.0
    return grad_a, grad_b


def infonce_gradients(
    view1: EmbeddingTable, view2: EmbeddingTable, tau: float
) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Exact gradients of :func:`infonce_loss` w.r.t. both view tables."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    gu1, gu2 = _entity_grads(view1.users, view2.users, tau)
    gi1, gi2 = _entity_grads(view1.items, view2.items, tau)
    return EmbeddingTable(gu1, gi1), EmbeddingTable(gu2, gi2)


@dataclass(eq=False)
class PretrainResult:
    table: EmbeddingTable
    losses: tuple[float, ...]


def pretrain(
    graph: BipartiteGraph,
    table: EmbeddingTable,
    epochs: int,
    cfg: AugmentationConfig,
    eta: float,
    n_layers: int,
    rng: np.random.Generator,
) -> PretrainResult:
    """Run ``epochs`` contrastive steps and return the warm-start table.

    ``losses`` holds the loss on each epoch's freshly sampled views before
    its step, plus one trailing evaluation after the final step (so k epochs
    yield k+1 entries). Zero epochs leave the table untouched.
    """
    current = table.copy()
    if epochs == 0:
        return PretrainResult(current, ())
    losses: list[float] = []
    for _ in range(epochs):
        r1, r2 = rng.spawn(2)
        p1 = compose_view(graph, current, cfg, n_layers, r1)
        p2 = compose_view(graph, current, cfg, n_layers, r2)
        losses.append(infonce_loss(p1.final, p2.final, cfg.temperature))
        g1, g2 = infonce_gradients(p1.final, p2.final, cfg.temperature)
        back1 = p1.backprop(g1)
        back2 = p2.backprop(g2)
        current = EmbeddingTable(
            current.users - eta * (back1.users + back2.users),
            current.items - eta * (back1.items + back2.items),
        )
    final1, final2 = make_views(graph, current, cfg, n_layers, rng)
    losses.append(infonce_loss(final1, final2, cfg.temperature))
    return PretrainResult(current, tuple(losses))


def assemble_pretraining_graph(
    split: SplitDataset, privacy: PrivacyConfig, seed: int
) -> BipartiteGraph:
    """Server-visible graph for pre-training: the privacy-distorted upload
    view. Per user, the masked training items are dropped and the pseudo
    items are added, each drawn from a per-user keyed stream. The server
    never sees the raw training edges.
    """
    from .rng import substream

    edges: list[tuple[int, int]] = []
    for user in sorted(split.train):
        cg = build_client_graph(
            split, user, privacy, substream(seed, "pretrain-graph", user)
        )
        edges.extend((user, item) for item in sorted(cg.true_items | cg.pseudo_items))
    return BipartiteGraph(split.n_users, split.n_items, tuple(edges))
