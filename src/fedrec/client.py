"""Simulated on-device logic: local training steps and personalization.

Each client owns its user embedding row and a privately fine-tuned copy of
the item rows it has touched; only (obfuscated) item gradients ever leave the
device. The local model is trained on a one-user star graph over the items
the client claims to have interacted with, optionally expanded by one hop of
anonymous co-interacting neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import ClientGraph, SplitDataset, build_client_graph
from .errors import DataError
from .gnn import (
    BprTriple,
    EmbeddingTable,
    GradientUpdate,
    PropagationOperator,
    bpr_gradients,
    bpr_loss,
    propagate,
    readout,
)
from .privacy import PrivacyConfig, ldp_randomize, pseudo_item_gradients


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
class PersonalizedModel:
    """The alpha-mixed item table plus the client's own user row."""

    item_rows: np.ndarray
    user_row: np.ndarray


@dataclass(eq=False)
class ClientState:
    """Mutable per-client state kept on the (simulated) device."""

    user: int
    user_vec: np.ndarray
    local_rows: dict[int, np.ndarray] = field(default_factory=dict)
    last_inferred: np.ndarray | None = None
    last_loss: float = float("nan")
    last_graph: ClientGraph | None = None


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
    neighbors: Mapping[int, tuple[tuple[str, int], ...]] = field(default_factory=dict)
    neighbor_vecs: Mapping[str, np.ndarray] = field(default_factory=dict)


def sample_bpr_triples(
    cg: ClientGraph, batch: int, rng: np.random.Generator
) -> list[BprTriple]:
    """``batch`` triples: positives uniform over the unmasked items, one
    negative each, uniform over items outside true+pseudo+masked."""
    positives = sorted(cg.true_items)
    if not positives:
        raise DataError(f"user {cg.user} has no positive items to sample")
    blocked = cg.true_items | cg.pseudo_items | cg.masked_items
    negatives = np.setdiff1d(
        np.arange(cg.n_items, dtype=np.int64),
        np.fromiter(blocked, dtype=np.int64, count=len(blocked)),
    )
    if len(negatives) == 0:
        raise DataError(f"user {cg.user} has no valid negative item")
    pos = rng.choice(np.asarray(positives, dtype=np.int64), size=batch)
    neg = rng.choice(negatives, size=batch)
    return [BprTriple(cg.user, int(p), int(j)) for p, j in zip(pos, neg)]


def _local_operator(
    cg: ClientGraph,
    triples: Sequence[BprTriple],
    n_layers: int,
    user_vec: np.ndarray,
    global_items: np.ndarray,
    neighbor_vecs: Mapping[str, np.ndarray],
):
    """Compact propagation problem around one client.

    Item space = claimed items + sampled negatives + neighbor-shared items;
    everything reachable from the batch lives there, so gradients computed on
    the compact graph equal gradients on the full catalog graph.
    """
    claimed = sorted(cg.true_items | cg.pseudo_items)
    item_space = sorted(
        set(claimed)
        | {t.neg_item for t in triples}
        | {item for _, item in cg.neighbor_users}
    )
    col = {item: j for j, item in enumerate(item_space)}
    tokens = sorted({tok for tok, _ in cg.neighbor_users})
    row = {tok: r + 1 for r, tok in enumerate(tokens)}
    pairs = sorted(cg.neighbor_users)
    edges = np.zeros((len(claimed) + len(pairs), 2), dtype=np.int64)
    edges[:, 1] = [col[item] for item in claimed] + [col[item] for _, item in pairs]
    if pairs:
        edges[len(claimed):, 0] = [row[tok] for tok, _ in pairs]
    op = PropagationOperator(1 + len(tokens), len(item_space), edges, n_layers)
    user_rows = np.vstack([user_vec] + [neighbor_vecs[tok] for tok in tokens])
    raw = EmbeddingTable(user_rows, global_items[item_space])
    local_triples = [BprTriple(0, col[t.pos_item], col[t.neg_item]) for t in triples]
    return op, raw, local_triples, item_space


def client_update(
    state: ClientState,
    global_items: np.ndarray,
    cfg: ClientConfig,
    rng: np.random.Generator,
) -> GradientUpdate:
    """One federated round on a single client.

    Builds the obfuscated local graph, infers the user embedding through the
    local propagation, computes exact BPR gradients, applies the user-row and
    private item-row steps on-device, then returns the item gradients with
    decoy pseudo rows attached and LDP applied. Draw order on ``rng``: mask,
    pseudo items, positives, negatives, decoy noise, LDP noise.
    """
    nb = cfg.neighbors.get(state.user, ()) if cfg.neighbors else ()
    cg = build_client_graph(cfg.split, state.user, cfg.privacy, rng, neighbors=nb)
    state.last_graph = cg

    batch = cfg.batch_size if cfg.batch_size > 0 else len(cg.true_items)
    triples = sample_bpr_triples(cg, batch, rng)

    op, raw, local_triples, item_space = _local_operator(
        cg, triples, cfg.n_layers, state.user_vec, global_items, cfg.neighbor_vecs
    )
    final = readout(propagate(op, raw))
    state.last_loss = bpr_loss(final, local_triples, cfg.gamma, raw)
    state.last_inferred = final.users[0].copy()

    grads = bpr_gradients(op, raw, local_triples, cfg.gamma)

    # the true user-row gradient never leaves the device
    own = grads.user_grads.get(0)
    if own is not None:
        state.user_vec = state.user_vec - cfg.eta * own

    real = {item_space[j]: g for j, g in grads.item_grads.items()}
    for item in sorted(real):
        base = state.local_rows.get(item)
        if base is None:
            base = cfg.local_base[item]
        state.local_rows[item] = base - cfg.eta * real[item]

    upload = dict(real)
    if cg.pseudo_items:
        genuine = {i: g for i, g in real.items() if i not in cg.pseudo_items}
        upload.update(pseudo_item_gradients(cg.pseudo_items, genuine, rng))

    update = GradientUpdate({}, upload, data_count=len(cg.true_items))
    return ldp_randomize(update, cfg.privacy.ldp, rng)


def personalize(
    local_items: np.ndarray,
    cluster_items: np.ndarray,
    global_items: np.ndarray,
    weights: PersonalizationWeights,
    user_row: np.ndarray,
) -> PersonalizedModel:
    """Weighted mix of the three item tables; the user row stays local."""
    if not (local_items.shape == cluster_items.shape == global_items.shape):
        raise ValueError("item tables must have identical shapes")
    mixed = (
        weights.alpha_local * local_items
        + weights.alpha_cluster * cluster_items
        + weights.alpha_global * global_items
    )
    return PersonalizedModel(mixed, np.asarray(user_row, dtype=np.float64).copy())


def local_item_table(state: ClientState, base: np.ndarray) -> np.ndarray:
    """The client's fine-tuned item table: warm-start rows plus its own
    accumulated raw-gradient steps on the rows it has touched."""
    rows = base.copy()
    for item, vec in state.local_rows.items():
        rows[item] = vec
    return rows


def infer_user_embedding(
    user_row: np.ndarray,
    item_rows: np.ndarray,
    graph_items: Sequence[int],
    n_layers: int,
) -> np.ndarray:
    """Readout embedding of a single user on its star graph."""
    items = sorted(graph_items)
    edges = np.zeros((len(items), 2), dtype=np.int64)
    edges[:, 1] = np.arange(len(items))
    op = PropagationOperator(1, max(len(items), 1), edges, n_layers)
    raw = EmbeddingTable(
        user_row[None, :],
        item_rows[items] if items else np.zeros((1, len(user_row))),
    )
    return readout(propagate(op, raw)).users[0]
