"""Simulated on-device logic: local training steps and personalization.

Each client owns its user embedding row and a privately fine-tuned copy of
the item rows it has touched; only (obfuscated) item gradients ever leave the
device. The local model is trained on a one-user star graph over the items
the client claims to have interacted with, optionally expanded by one hop of
anonymous co-interacting neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import ClientGraph, SplitDataset, build_client_graph
from .errors import DataError
from .gnn import (
    EmbeddingTable,
    GradientUpdate,
    PropagationOperator,
    bpr_gradients,
)
from .privacy import PrivacyConfig, complement_ids, ldp_randomize, pseudo_item_gradients


@dataclass(frozen=True)
class PersonalizationWeights:
    """Mixing weights for the local / cluster / global item tables."""

    alpha_local: float
    alpha_cluster: float
    alpha_global: float

    def __post_init__(self) -> None:
        if min(self.alpha_local, self.alpha_cluster, self.alpha_global) < 0:
            raise ValueError("personalization weights must be >= 0")


@dataclass(eq=False)
class ClientState:
    """Mutable per-client state kept on the (simulated) device. Its private
    overlay is row ``local_rows[k]`` for item ``local_items[k]`` (sorted ids);
    updates rebind these arrays and never write into them."""

    user: int
    user_vec: np.ndarray
    local_items: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    local_rows: np.ndarray | None = None
    last_inferred: np.ndarray | None = None
    last_loss: float = float("nan")

    def __post_init__(self) -> None:
        if self.local_rows is None:
            self.local_rows = np.empty((0, len(self.user_vec)))


def init_client_states(table: EmbeddingTable) -> dict[int, ClientState]:
    """One state per user, seeded from the warm-start table."""
    return {
        u: ClientState(u, table.users[u].copy(), last_inferred=table.users[u].copy())
        for u in range(table.n_users)
    }


@dataclass(eq=False)
class ClientConfig:
    """Round-invariant inputs shared by every client update."""

    split: SplitDataset
    n_layers: int
    eta: float
    gamma: float
    batch_size: int
    privacy: PrivacyConfig
    local_base: np.ndarray
    # per user, sorted (handle, item) rows; uploaded user rows by handle
    neighbors: Sequence[np.ndarray] = ()
    neighbor_vecs: np.ndarray | None = None


def sample_bpr_triples(
    cg: ClientGraph, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """``(batch, 3)`` int64 (user, pos, neg) rows: positives uniform over the
    unmasked items, one negative each, uniform over items outside
    true+pseudo+masked (drawn as a position in that complement)."""
    positives = sorted(cg.true_items)
    if not positives:
        raise DataError(f"user {cg.user} has no positive items to sample")
    blocked = np.array(sorted(cg.true_items | cg.pseudo_items | cg.masked_items), np.int64)
    if len(blocked) >= cg.n_items:
        raise DataError(f"user {cg.user} has no valid negative item")
    triples = np.full((batch, 3), cg.user, dtype=np.int64)
    triples[:, 1] = rng.choice(np.asarray(positives, dtype=np.int64), size=batch)
    triples[:, 2] = complement_ids(
        blocked, rng.choice(cg.n_items - len(blocked), size=batch)
    )
    return triples


def _local_operator(
    cg: ClientGraph,
    triples: np.ndarray,
    n_layers: int,
    user_vec: np.ndarray,
    global_items: np.ndarray,
    neighbor_vecs: np.ndarray | None,
):
    """Compact propagation problem around one client.

    Item space = claimed items + sampled negatives + neighbor-shared items;
    everything reachable from the batch lives there, so gradients computed on
    the compact graph equal gradients on the full catalog graph. Returns the
    operator, the raw table, the triples in local ids (user 0) and the sorted
    catalogue ids of the local items.
    """
    claimed = np.array(sorted(cg.true_items | cg.pseudo_items), dtype=np.int64)
    handles, shared = cg.neighbor_users.T
    item_space = np.unique(np.concatenate((claimed, triples[:, 2], shared)))
    # row 0 is the client; the neighbor handles follow in sorted order
    handles, rows = np.unique(handles, return_inverse=True)
    edges = np.zeros((len(claimed) + len(shared), 2), dtype=np.int64)
    edges[len(claimed):, 0] = rows + 1
    edges[:, 1] = np.searchsorted(item_space, np.concatenate((claimed, shared)))
    op = PropagationOperator(1 + len(handles), len(item_space), edges, n_layers)
    user_rows = user_vec[None, :]
    if len(handles):
        user_rows = np.vstack((user_rows, neighbor_vecs[handles]))
    raw = EmbeddingTable(user_rows, global_items[item_space])
    local_triples = np.zeros_like(triples)
    local_triples[:, 1:] = np.searchsorted(item_space, triples[:, 1:])
    return op, raw, local_triples, item_space


def client_update(
    state: ClientState,
    global_items: np.ndarray,
    cfg: ClientConfig,
    rng: np.random.Generator,
) -> GradientUpdate:
    """One federated round on a single client.

    Builds the obfuscated local graph and propagates once forward (the loss
    and the inferred user embedding) and once back (exact BPR gradients).
    Applies the user-row and private item-row steps on-device, then returns
    the item gradients with decoy pseudo rows attached and LDP applied. The
    uploaded rows are those with a nonzero gradient plus the batch's items; a
    pseudo item's decoy row replaces its real one. Draw order on ``rng``:
    mask, pseudo items, positives, negatives, decoy noise, LDP noise.
    """
    nb = cfg.neighbors[state.user] if cfg.neighbors else ()
    cg = build_client_graph(cfg.split, state.user, cfg.privacy, rng, neighbors=nb)

    batch = cfg.batch_size if cfg.batch_size > 0 else len(cg.true_items)
    triples = sample_bpr_triples(cg, batch, rng)

    op, raw, local_triples, item_space = _local_operator(
        cg, triples, cfg.n_layers, state.user_vec, global_items, cfg.neighbor_vecs
    )
    state.last_loss, final, grads = bpr_gradients(op, raw, local_triples, cfg.gamma)
    state.last_inferred = final.users[0].copy()

    # the true user-row gradient never leaves the device
    state.user_vec = state.user_vec - cfg.eta * grads.users[0]

    support = np.union1d(np.flatnonzero(grads.items.any(axis=1)), local_triples[:, 1:])
    items, rows = item_space[support], grads.items[support]
    # private step: untouched rows start from the warm-start table
    merged = np.union1d(state.local_items, items)
    local = cfg.local_base[merged]
    local[np.searchsorted(merged, state.local_items)] = state.local_rows
    local[np.searchsorted(merged, items)] -= cfg.eta * rows
    state.local_items, state.local_rows = merged, local

    if cg.pseudo_items:
        pseudo = np.array(sorted(cg.pseudo_items), dtype=np.int64)
        decoys = pseudo_item_gradients(pseudo, rows[~np.isin(items, pseudo)], rng)
        upload = np.union1d(items, pseudo)
        block = np.empty((len(upload), rows.shape[1]))
        block[np.searchsorted(upload, items)] = rows
        block[np.searchsorted(upload, pseudo)] = decoys
        items, rows = upload, block

    update = GradientUpdate(items, rows, data_count=len(cg.true_items))
    return ldp_randomize(update, cfg.privacy.ldp, rng)


def personalize(
    local_items: np.ndarray,
    cluster_items: np.ndarray,
    global_items: np.ndarray,
    weights: PersonalizationWeights,
) -> np.ndarray:
    """Weighted mix of the three item tables."""
    if not (local_items.shape == cluster_items.shape == global_items.shape):
        raise ValueError("item tables must have identical shapes")
    return (
        weights.alpha_local * local_items
        + weights.alpha_cluster * cluster_items
        + weights.alpha_global * global_items
    )


def local_item_table(state: ClientState, base: np.ndarray) -> np.ndarray:
    """The client's fine-tuned item table: warm-start rows plus its own
    accumulated raw-gradient steps on the rows it has touched."""
    rows = base.copy()
    rows[state.local_items] = state.local_rows
    return rows


def infer_user_embedding(
    user_row: np.ndarray,
    item_rows: np.ndarray,
    items: np.ndarray,
    n_layers: int,
) -> np.ndarray:
    """Readout embedding of a single user on its star graph over the sorted
    item ids ``items``, equal to the bit to ``propagate(op, raw).users[0]``
    on the star's operator, without building one."""
    n = len(items)
    # the operator's edge weight 1/sqrt(n * 1); no items: one zero row
    adj = np.full((1, n), 1.0 / np.sqrt(np.int64(n))) if n else np.zeros((1, 1))
    item_layer = item_rows[items] if n else np.zeros((1, len(user_row)))
    user_layers = [np.asarray(user_row, dtype=np.float64)[None, :]]
    for _ in range(n_layers):
        user_layers.append(adj @ item_layer)
        item_layer = adj.T @ user_layers[-2]
    return np.mean(user_layers, axis=0)[0]
