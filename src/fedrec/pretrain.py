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

from .config import PretrainSection, PrivacySection
from .data import SplitDataset, build_client_graph
from .gnn import BipartiteGraph, EmbeddingTable, PropagationOperator, propagate
from .rng import substreams


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique`` of non-negative ids by a stable sort, linear in a sorted
    prefix."""
    ids = np.sort(ids, kind="stable")
    return ids[np.diff(ids, prepend=-1) != 0]


def _sample_absent_edges(
    graph: BipartiteGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct non-edges as sorted (user, item) rows, drawn a user
    then an item per pair, redrawing pairs that hit an edge or an earlier pair.
    A block draws only the pairs still missing, so the draws are the one-pair
    loop's. Exactly every non-edge draws nothing; more is a ``ValueError``."""
    n_users, n_items = graph.n_users, graph.n_items
    edges = _sorted_unique(graph.edges[:, 0] * n_items + graph.edges[:, 1])
    available = n_users * n_items - len(edges)
    if count > available:
        raise ValueError(f"requested {count} new edges but only {available} non-edges exist")
    if count == available:
        taken = np.arange(n_users * n_items, dtype=np.int64)
    else:
        taken = edges
        while (missing := len(edges) + count - len(taken)) > 0:
            draws = rng.integers(0, np.tile([n_users, n_items], missing))
            taken = _sorted_unique(np.concatenate((taken, draws[0::2] * n_items + draws[1::2])))
    ids = np.setdiff1d(taken, edges, assume_unique=True)
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


@dataclass(eq=False)
class ViewPipeline:
    """One augmented forward pass, retaining what backprop needs."""

    user_mask: np.ndarray
    item_mask: np.ndarray
    operator: PropagationOperator
    final: EmbeddingTable

    def backprop(self, grad_final: EmbeddingTable) -> EmbeddingTable:
        """Gradient w.r.t. the raw input table for this view."""
        back = propagate(self.operator, grad_final)
        return EmbeddingTable(
            back.users * self.user_mask[:, None],
            back.items * self.item_mask[:, None],
        )


def compose_view(
    graph: BipartiteGraph,
    table: EmbeddingTable,
    cfg: PretrainSection,
    n_layers: int,
    rng: np.random.Generator,
) -> ViewPipeline:
    """Apply every augmentation whose strength is not neutral (keep
    probability 1, no added edges, zero noise), and propagate.

    ``edge_add_count`` is a resolved count (see ``server.warm_up``). Draw
    order per view: node masks, users then items, each node kept with
    probability ``node_keep_prob`` (only when it is below 1); new edges (only
    when ``edge_add_count > 0``); noise (only when ``noise_magnitude > 0``).
    A neutral augmentation draws nothing. Dropped nodes are zeroed at layer 0
    and the operator keeps only the edges whose two endpoints survive, degrees
    recomputed, so a fully dropped graph propagates to all-zero embeddings.
    """
    if not (0 < cfg.node_keep_prob <= 1 and cfg.noise_magnitude >= 0):
        raise ValueError("need node_keep_prob in (0, 1] and noise_magnitude >= 0")
    if cfg.edge_add_count < 0:
        raise ValueError(f"edge_add_count must be resolved to >= 0, got {cfg.edge_add_count}")
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
    if cfg.noise_magnitude > 0:
        table = noise_injection(table, cfg.noise_magnitude, rng)
    x0 = EmbeddingTable(table.users * user_mask[:, None], table.items * item_mask[:, None])
    kept = edges[user_mask[edges[:, 0]] & item_mask[edges[:, 1]]]
    op = PropagationOperator(graph.n_users, graph.n_items, kept, n_layers)
    return ViewPipeline(user_mask, item_mask, op, propagate(op, x0))


def _normalized_rows(x: np.ndarray):
    """Unit rows, the zero-norm mask, and the norms with 1 in place of 0."""
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms)
    return x / safe[:, None], zero, safe


INFONCE_CELLS = 1 << 18  # similarities per InfoNCE row block: 2 MB of float64


def _entity_infonce(a: np.ndarray, b: np.ndarray, tau: float, grads: bool):
    """Per-entity terms and, with ``grads``, the gradients w.r.t. ``a`` and
    ``b``, over blocks of ``a``-rows of at most ``INFONCE_CELLS`` similarities.
    A block holds its similarities and one exponential that gives scipy's
    logsumexp and softmax bit for bit (``exp(0)`` is exactly 1); ``b``'s
    gradient sums the blocks' column terms and is finished after the loop."""
    a_hat, zero_a, na = _normalized_rows(a)
    b_hat, zero_b, nb = _normalized_rows(b)
    zero = bool(zero_a.any() or zero_b.any())
    n = len(a_hat)
    step = max(1, min(n, INFONCE_CELLS // max(n, 1)))
    # every block writes into these, so no two blocks' arrays are alive at once
    sims_buf, w_buf = np.empty((step, n)), np.empty((step, n))
    peaks_buf = np.empty((step, n), dtype=bool)
    terms = np.empty(n)
    if grads:
        grad_a = np.empty_like(a_hat)
        # -0.0 adds exactly nothing, so a single block is the unblocked sum
        wa = np.full_like(b_hat, -0.0)
        ws_cols = np.full(n, -0.0)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        a_rows = a_hat[rows]
        k = len(a_rows)
        sims = np.matmul(a_rows, b_hat.T, out=sims_buf[:k])
        w = np.divide(sims, tau, out=w_buf[:k])
        top = w.max(axis=1, keepdims=True)
        w -= top
        peaks = np.equal(w, 0, out=peaks_buf[:k])  # every row maximum, ties included
        count = np.count_nonzero(peaks, axis=1).astype(float)[:, None]
        np.exp(w, out=w)
        w[peaks] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite input
            lse = np.log1p(w.sum(axis=1, keepdims=True) / count) + np.log(count) + top
        terms[rows] = lse[:, 0] - np.diagonal(sims, offset=start) / tau
        if not grads:
            continue
        w[peaks] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        w.reshape(-1)[start :: n + 1] -= 1.0  # the block's diagonal cells
        w /= tau
        ws = np.multiply(w, sims, out=sims)
        grad_a[rows] = (w @ b_hat - ws.sum(axis=1)[:, None] * a_rows) / na[rows, None]
        wa += w.T @ a_rows
        ws_cols += ws.sum(axis=0)
    if not grads:
        return terms, None, None, zero
    grad_b = (wa - ws_cols[:, None] * b_hat) / nb[:, None]
    grad_a[zero_a] = 0.0
    grad_b[zero_b] = 0.0
    return terms, grad_a, grad_b, zero


def _infonce(view1: EmbeddingTable, view2: EmbeddingTable, tau: float, grads: bool):
    """The summed loss and the kernel's user and item outputs."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if view1.users.shape != view2.users.shape or view1.items.shape != view2.items.shape:
        raise ValueError("views must have matching row sets")
    users = _entity_infonce(view1.users, view2.users, tau, grads)
    items = _entity_infonce(view1.items, view2.items, tau, grads)
    if users[3] or items[3]:
        msg = "zero-norm embedding row; its similarities are treated as 0"
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
    return float(users[0].sum() + items[0].sum()), users, items


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
    loss, users, items = _infonce(view1, view2, tau, grads=True)
    return loss, EmbeddingTable(users[1], items[1]), EmbeddingTable(users[2], items[2])


def infonce_loss(view1: EmbeddingTable, view2: EmbeddingTable, tau: float) -> float:
    """The loss of :func:`infonce_gradients` alone, from the same kernel."""
    return _infonce(view1, view2, tau, grads=False)[0]


@dataclass(eq=False)
class PretrainResult:
    table: EmbeddingTable
    losses: tuple[float, ...]


def pretrain(
    graph: BipartiteGraph,
    table: EmbeddingTable,
    epochs: int,
    cfg: PretrainSection,
    n_layers: int,
    rng: np.random.Generator,
) -> PretrainResult:
    """Run ``epochs`` contrastive steps of size ``cfg.eta`` and return the
    warm-start table; ``cfg`` also gives the augmentations and ``tau``.

    Each epoch draws a fresh pair of views with ``rng.spawn(2)``, records
    their loss and steps on it. One more pair is drawn after the final step,
    so k epochs yield k+1 losses, and the first k+1 losses of a longer run
    are the same. Zero epochs leave the table untouched and draw nothing.
    """
    if cfg.eta <= 0:
        raise ValueError(f"eta must be resolved to > 0, got {cfg.eta}")
    current = table.copy()
    if epochs == 0:
        return PretrainResult(current, ())
    losses: list[float] = []
    for epoch in range(epochs + 1):
        r1, r2 = rng.spawn(2)
        p1 = compose_view(graph, current, cfg, n_layers, r1)
        p2 = compose_view(graph, current, cfg, n_layers, r2)
        if epoch == epochs:  # the trailing pair takes no step
            losses.append(infonce_loss(p1.final, p2.final, cfg.tau))
            break
        loss, g1, g2 = infonce_gradients(p1.final, p2.final, cfg.tau)
        losses.append(loss)
        back1 = p1.backprop(g1)
        back2 = p2.backprop(g2)
        current = EmbeddingTable(
            current.users - cfg.eta * (back1.users + back2.users),
            current.items - cfg.eta * (back1.items + back2.items),
        )
    return PretrainResult(current, tuple(losses))


def assemble_pretraining_graph(
    split: SplitDataset, privacy: PrivacySection, seed: int
) -> BipartiteGraph:
    """Server-visible graph for pre-training: the privacy-distorted upload
    view. Per user, the masked training items are dropped and the pseudo
    items are added, each drawn from a per-user keyed stream. The server
    never sees the raw training edges.
    """
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for user, stream in enumerate(substreams(seed, "pretrain-graph", ids=range(split.n_users))):
        cg = build_client_graph(split, user, privacy, stream)
        items = np.sort(np.concatenate((cg.true_ids, cg.pseudo_ids)))
        blocks.append(np.column_stack((np.full(len(items), user), items)))
    return BipartiteGraph(split.n_users, split.n_items, np.concatenate(blocks))
