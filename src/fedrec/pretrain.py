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
)
from .privacy import PrivacyConfig
from .rng import substream


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
    ``(E, 2)`` edge array. Edges touching a dropped node are inert during
    propagation."""

    user_mask: np.ndarray
    item_mask: np.ndarray
    edges: np.ndarray


def _sample_absent_edges(
    graph: BipartiteGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct non-edges as sorted (user, item) rows. Each draw is
    a user then an item; a draw that hits an edge or an earlier draw is
    redrawn. Asking for all the non-edges or more returns all of them."""
    n_items = graph.n_items
    existing = graph.edges[:, 0] * n_items + graph.edges[:, 1]
    seen = set(existing.tolist())
    available = graph.n_users * n_items - len(seen)
    if count >= available:
        if count > available:
            warnings.warn(
                f"requested {count} new edges but only {available} non-edges exist",
                RuntimeWarning,
                stacklevel=3,
            )
        ids = np.setdiff1d(np.arange(graph.n_users * n_items, dtype=np.int64), existing)
    else:
        added: set[int] = set()
        while len(added) < count:
            lid = int(rng.integers(graph.n_users)) * n_items + int(rng.integers(n_items))
            if lid not in seen:
                added.add(lid)
        ids = np.array(sorted(added), dtype=np.int64)
    return np.stack(np.divmod(ids, n_items), axis=1)


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
    e = view.edges
    kept = e[view.user_mask[e[:, 0]] & view.item_mask[e[:, 1]]]
    return PropagationOperator(len(view.user_mask), len(view.item_mask), kept, n_layers)


@dataclass(eq=False)
class ViewPipeline:
    """One augmented forward pass, retaining what backprop needs."""

    view: GraphView
    operator: PropagationOperator
    final: EmbeddingTable

    def backprop(self, grad_final: EmbeddingTable) -> EmbeddingTable:
        """Gradient w.r.t. the raw input table for this view."""
        back = propagate(self.operator, grad_final)
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

    Draw order per view: node masks, users then items, each node kept with
    probability ``node_keep_prob`` (only when it is below 1); new edges (only
    when ``edge_add_count > 0``); noise (only when ``noise_magnitude > 0``).
    A neutral augmentation draws nothing. Dropped nodes are zeroed at layer 0
    and their edges are inert, so a fully dropped graph propagates to
    all-zero embeddings.
    """
    if cfg.node_keep_prob < 1:
        user_mask = rng.random(graph.n_users) < cfg.node_keep_prob
        item_mask = rng.random(graph.n_items) < cfg.node_keep_prob
    else:
        user_mask = np.ones(graph.n_users, dtype=bool)
        item_mask = np.ones(graph.n_items, dtype=bool)
    edges = graph.edges
    if cfg.edge_add_count > 0:
        edges = np.concatenate(
            (edges, _sample_absent_edges(graph, cfg.edge_add_count, rng))
        )
    view = GraphView(user_mask, item_mask, edges)

    if cfg.noise_magnitude > 0:
        table = noise_injection(table, cfg.noise_magnitude, rng)
    x0 = EmbeddingTable(table.users * user_mask[:, None], table.items * item_mask[:, None])
    op = view_operator(view, n_layers)
    return ViewPipeline(view, op, propagate(op, x0))


def _normalized_rows(x: np.ndarray):
    """Unit rows, the zero-norm mask, and the norms with 1 in place of 0."""
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms)
    return x / safe[:, None], zero, safe


def _entity_infonce(a: np.ndarray, b: np.ndarray, tau: float):
    """Per-entity terms and the gradients w.r.t. ``a`` and ``b``, all from
    one similarity matrix."""
    a_hat, zero_a, na = _normalized_rows(a)
    b_hat, zero_b, nb = _normalized_rows(b)
    sims = a_hat @ b_hat.T
    logits = sims / tau
    terms = logsumexp(logits, axis=1) - np.diag(sims) / tau
    w = softmax(logits, axis=1)
    del logits
    w[np.diag_indices_from(w)] -= 1.0
    w /= tau
    ws = w * sims
    grad_a = (w @ b_hat - ws.sum(axis=1)[:, None] * a_hat) / na[:, None]
    grad_b = (w.T @ a_hat - ws.sum(axis=0)[:, None] * b_hat) / nb[:, None]
    grad_a[zero_a] = 0.0
    grad_b[zero_b] = 0.0
    return terms, grad_a, grad_b, bool(zero_a.any() or zero_b.any())


def infonce_gradients(
    view1: EmbeddingTable, view2: EmbeddingTable, tau: float
) -> tuple[float, EmbeddingTable, EmbeddingTable]:
    """Summed contrastive loss over users plus items, and its exact gradients
    w.r.t. both view tables: ``(loss, grad1, grad2)``.

    Entity u's term is log sum_v exp(cos(a_u, b_v)/tau) - cos(a_u, b_u)/tau
    with v ranging over the second view's rows of the same type; each term
    is >= 0. Zero-norm rows contribute similarity 0 to every pair, get a zero
    gradient, and trigger a warning.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if view1.users.shape != view2.users.shape or view1.items.shape != view2.items.shape:
        raise ValueError("views must have matching row sets")
    user_terms, gu1, gu2, warn_u = _entity_infonce(view1.users, view2.users, tau)
    item_terms, gi1, gi2, warn_i = _entity_infonce(view1.items, view2.items, tau)
    if warn_u or warn_i:
        warnings.warn(
            "zero-norm embedding row; its similarities are treated as 0",
            RuntimeWarning,
            stacklevel=2,
        )
    loss = float(user_terms.sum() + item_terms.sum())
    return loss, EmbeddingTable(gu1, gi1), EmbeddingTable(gu2, gi2)


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

    Each epoch draws a fresh pair of views with ``rng.spawn(2)``, records
    their loss and steps on it. One more pair is drawn after the final step,
    so k epochs yield k+1 losses, and the first k+1 losses of a longer run
    are the same. Zero epochs leave the table untouched and draw nothing.
    """
    current = table.copy()
    if epochs == 0:
        return PretrainResult(current, ())
    losses: list[float] = []
    for epoch in range(epochs + 1):
        r1, r2 = rng.spawn(2)
        p1 = compose_view(graph, current, cfg, n_layers, r1)
        p2 = compose_view(graph, current, cfg, n_layers, r2)
        loss, g1, g2 = infonce_gradients(p1.final, p2.final, cfg.temperature)
        losses.append(loss)
        if epoch == epochs:
            break
        back1 = p1.backprop(g1)
        back2 = p2.backprop(g2)
        current = EmbeddingTable(
            current.users - eta * (back1.users + back2.users),
            current.items - eta * (back1.items + back2.items),
        )
    return PretrainResult(current, tuple(losses))


def assemble_pretraining_graph(
    split: SplitDataset, privacy: PrivacyConfig, seed: int
) -> BipartiteGraph:
    """Server-visible graph for pre-training: the privacy-distorted upload
    view. Per user, the masked training items are dropped and the pseudo
    items are added, each drawn from a per-user keyed stream. The server
    never sees the raw training edges.
    """
    edges: list[tuple[int, int]] = []
    for user in range(split.n_users):
        cg = build_client_graph(
            split, user, privacy, substream(seed, "pretrain-graph", user)
        )
        edges += [(user, item) for item in sorted(cg.true_items | cg.pseudo_items)]
    return BipartiteGraph(split.n_users, split.n_items, edges)
