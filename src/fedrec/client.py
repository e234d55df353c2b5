"""Simulated on-device logic: local training steps and personalization.

Each client owns its user embedding row and a privately fine-tuned copy of
the item rows it has touched; only (obfuscated) item gradients ever leave the
device. The local model is trained on a one-user star graph over the items
the client claims to have interacted with, optionally expanded by one hop of
anonymous co-interacting neighbors.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator
from scipy import sparse
from scipy.special import expit

from .config import ExperimentConfig
from .data import ClientGraph, SplitDataset, build_client_graph
from .errors import DataError
from .gnn import EmbeddingTable, GradientUpdate, gram_readout, scatter_rows, star_readout
from .privacy import complement_ids, ldp_randomize, pseudo_item_gradients


class Overlay(NamedTuple):
    """A client's private item rows: row ``local_rows[k]`` for item
    ``local_items[k]`` (sorted ids)."""

    local_items: np.ndarray
    local_rows: np.ndarray


@dataclass(eq=False)
class ClientStates:
    """Every client's on-device state, in user order: the user rows, the
    last inferred (uploaded) rows and the last losses as blocks, and each
    client's overlay over the warm-start item table ``local_base``. Updates
    write the blocks by row and rebind an overlay, never writing into one."""

    user_rows: np.ndarray
    inferred: np.ndarray
    losses: np.ndarray
    overlays: list[Overlay]
    local_base: np.ndarray

    @classmethod
    def start(cls, table: EmbeddingTable) -> ClientStates:
        """Every client from the warm-start table, with no overlay rows and no loss."""
        users, n = table.users, table.n_users
        empty = Overlay(np.empty(0, np.int64), np.empty((0, table.dim)))
        return cls(users.copy(), users.copy(), np.full(n, np.nan), [empty] * n, table.items)

    def copy(self) -> ClientStates:
        """A snapshot: the blocks copied, the overlays shared."""
        blocks = self.user_rows.copy(), self.inferred.copy(), self.losses.copy()
        return ClientStates(*blocks, list(self.overlays), self.local_base)


@dataclass(frozen=True, eq=False)
class Neighbours:
    """Every user's one-hop neighbour rows as one CSR: user ``u``'s sorted
    (handle, shared item) int64 rows are ``rows[indptr[u]:indptr[u + 1]]``."""

    indptr: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, user: int) -> np.ndarray:
        return self.rows[self.indptr[user] : self.indptr[user + 1]]


@dataclass(frozen=True, eq=False)
class NeighbourFold:
    """Every user's neighbour rows folded once per run into what they add to
    the user's graph. User ``u``'s shared items are the slots
    ``ptr[u]:ptr[u + 1]``, with sorted ids in ``items`` and ``counts``, the
    number of neighbours sharing each one. With ``d_h`` the number of items
    neighbour ``h`` shares, ``weights`` (slots x handles) holds 1/sqrt(d_h)
    where ``h`` shares the slot's item, and the block-diagonal ``gram``
    (slots x slots) sums 1/d_h over the neighbours sharing both items."""

    ptr: np.ndarray
    items: np.ndarray
    counts: np.ndarray
    weights: sparse.csr_matrix
    gram: sparse.csr_matrix


def fold_neighbours(neighbors: Neighbours, n_items: int) -> NeighbourFold:
    """Every user's :class:`NeighbourFold` from the CSR, with no per-user loop.
    A handle indexes one of the ``len(neighbors)`` users' uploaded rows."""
    n_users, n_rows = len(neighbors), len(neighbors.rows)
    user_bits, item_bits, row_bits = (n.bit_length() for n in (n_users, n_items, n_rows))
    if user_bits + item_bits + row_bits > 63:
        raise DataError("too many neighbour rows to fold in one int64 sort")
    handles, items = neighbors.rows.T
    user = np.repeat(np.arange(n_users), np.diff(neighbors.indptr))
    # (user, handle) groups are runs: a user's rows are sorted by handle
    key = (user << user_bits) | handles
    change = np.concatenate(([True], key[1:] != key[:-1]))[:n_rows]
    group, group_ptr = np.cumsum(change) - 1, np.append(np.flatnonzero(change), n_rows)
    degree = np.diff(group_ptr)
    # the rows in (user, item) order, by one in-place sort of keys carrying the row index
    np.left_shift(user, item_bits, out=key)
    key |= items
    key <<= row_bits
    key |= np.arange(n_rows)
    key.sort()
    order = key & ((1 << row_bits) - 1)
    key >>= row_bits  # (user, item)
    new = np.concatenate(([True], key[1:] != key[:-1]))[:n_rows]
    first = np.flatnonzero(new)
    slot_ptr, n_slots = np.append(first, n_rows), len(first)
    slot = np.empty(n_rows, np.int64)
    slot[order] = np.cumsum(new) - 1
    root = (1.0 / np.sqrt(degree))[group]
    weights = sparse.csr_matrix((root[order], handles[order], slot_ptr), (n_slots, n_users))
    # gram = member @ member.T, the transpose built in row order
    member = sparse.csr_matrix((weights.data, group[order], slot_ptr), (n_slots, len(degree)))
    gram = member @ sparse.csr_matrix((root, slot, group_ptr), member.shape[::-1])
    pairs = key[first]
    ptr = np.searchsorted(pairs, np.arange(n_users + 1) << item_bits)
    return NeighbourFold(ptr, pairs & ((1 << item_bits) - 1), np.diff(slot_ptr), weights, gram)


@dataclass(eq=False)
class ClientConfig:
    """Inputs shared by every client update; only ``neighbor_vecs``, the
    users' uploaded rows in handle order, changes from round to round. The
    settings are those of ``experiment``; ``neighbors`` is every user's
    neighbour rows as :func:`fold_neighbours` folds them."""

    split: SplitDataset
    experiment: ExperimentConfig
    neighbors: NeighbourFold | None = None
    neighbor_vecs: np.ndarray | None = None


def sample_bpr_triples(
    cg: ClientGraph, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """``(batch, 3)`` int64 (user, pos, neg) rows: positives uniform over the
    unmasked items, one negative each, uniform over items outside
    true+pseudo+masked (drawn as a position in that complement). Each draw
    is ``rng.integers(0, n, batch)``, the draw of ``rng.choice(n, batch)``."""
    positives = cg.true_ids
    blocked = np.sort(np.concatenate((positives, cg.pseudo_ids, cg.masked_ids)))
    if not len(positives):
        raise DataError(f"user {cg.user} has no positive items to sample")
    if len(blocked) >= cg.n_items:
        raise DataError(f"user {cg.user} has no valid negative item")
    triples = np.full((batch, 3), cg.user, dtype=np.int64)
    triples[:, 1] = positives[rng.integers(0, len(positives), batch)]
    triples[:, 2] = complement_ids(blocked, rng.integers(0, cg.n_items - len(blocked), batch))
    return triples


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b)`` of two 1-D integer arrays, by one sort of their
    concatenation, without ``np.unique``'s per-call overhead."""
    ids = np.concatenate((a, b))
    ids.sort()
    new = np.empty(len(ids), dtype=bool)
    new[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return ids[new]


STAR_CHUNK = 16  # star clients per kernel pass: a chunk's blocks stay in cache
NEIGHBOUR_CHUNK = 32  # clients with neighbour rows per kernel pass


# a client's arithmetic: loss, inferred row, user-row gradient, upload ids and rows
LocalStep = namedtuple("LocalStep", "loss inferred user_grad items rows")


def _chunk_steps(
    graphs, batches, states, global_items, cfg: ClientConfig, shared: np.ndarray, kernel
) -> list[LocalStep]:
    """The steps of a chunk of clients: BPR through a readout map forward and
    back, each client's loss its own batch's. Client ``k``'s item space (its
    claimed items, its negatives and its ``shared`` items, as on its compact
    operator) is one run of rows keyed ``k * M + item``; ``shared`` holds such
    keys. ``kernel(keys, linked, owner)``, given the rows of the claimed items
    and their clients, returns the forward and the backward readout maps."""
    exp, n_items, n = cfg.experiment, len(global_items), len(graphs)
    gamma, offsets = exp.train.gamma, np.arange(n) * n_items
    # the claimed items' keys, sorted: each client's true then pseudo ids
    ids = [a for cg in graphs for a in (cg.true_ids, cg.pseudo_ids)]
    owner = np.repeat(np.arange(n), [len(cg.true_ids) + len(cg.pseudo_ids) for cg in graphs])
    linked = np.concatenate(ids) + offsets[owner]
    linked.sort()
    sizes = np.array([len(b) for b in batches])
    c = np.repeat(np.arange(n), sizes)
    ends = np.concatenate(batches)[:, 1:] + offsets[c][:, None]
    keys = _sorted_union(linked, np.concatenate((ends[:, 1], shared)))  # positives are claimed
    forward, backward = kernel(keys, np.searchsorted(keys, linked), owner)
    p, j = np.searchsorted(keys, ends).T
    raw_users = states.user_rows[[cg.user for cg in graphs]]
    raw_items = global_items[keys % n_items]
    final = forward(raw_users, raw_items)
    diff = final.items[p] - final.items[j]
    m = np.einsum("nd,nd->n", final.users[c], diff)
    losses = np.bincount(c, np.logaddexp(0.0, -m), n) / sizes
    coef = -expit(-m)[:, None] / sizes[c][:, None]
    pulled = coef * final.users[c]
    g_items = scatter_rows(np.concatenate((p, j)), np.concatenate((pulled, -pulled)), len(keys))
    grads = backward(scatter_rows(c, coef * diff, n), g_items)
    touched = _sorted_union(p, j)
    if gamma:
        norms = np.bincount(keys[touched] // n_items, np.sum(raw_items[touched] ** 2, axis=1), n)
        losses += gamma * (np.sum(raw_users**2, axis=1) + norms)
        grads.users += 2.0 * gamma * raw_users
        grads.items[touched] += 2.0 * gamma * raw_items[touched]
    support = _sorted_union(np.flatnonzero(grads.items.any(axis=1)), touched)
    cuts = np.searchsorted(keys[support], offsets[1:])
    items, rows = np.split(keys[support] % n_items, cuts), np.split(grads.items[support], cuts)
    return list(map(LocalStep, losses.tolist(), final.users, grads.users, items, rows))


def _star_steps(graphs, batches, states, global_items, cfg: ClientConfig) -> list[LocalStep]:
    """The steps of a chunk of star clients, through :func:`star_readout`."""

    def kernel(keys, linked, owner):
        star = np.full(len(keys), -1)
        star[linked] = owner
        readout = partial(star_readout, star=star, n_layers=cfg.experiment.model.layers)
        return readout, readout

    return _chunk_steps(graphs, batches, states, global_items, cfg, np.empty(0, np.int64), kernel)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k]:stops[k]`` in turn, as one index array."""
    lengths = stops - starts
    return np.arange(lengths.sum()) + np.repeat(starts + lengths - np.cumsum(lengths), lengths)


def _diagonal_block(gram: sparse.csr_matrix, slots: np.ndarray):
    """``gram[slots][:, slots]`` as COO ``(row, col, data)``, cells in stored
    order, by index arithmetic: ``gram`` is block diagonal and ``slots`` is a
    sequence of whole diagonal blocks, each a run of ascending slots."""
    cells = _ranges(gram.indptr[slots], gram.indptr[slots + 1])
    row = np.repeat(np.arange(len(slots)), np.diff(gram.indptr)[slots])
    return row, gram.indices[cells] - (slots - np.arange(len(slots)))[row], gram.data[cells]


def _neighbour_steps(graphs, batches, states, global_items, cfg: ClientConfig) -> list[LocalStep]:
    """The steps of a chunk of clients with neighbour rows, through
    :func:`gram_readout` on their folds in ``cfg.neighbors``. Every triple
    reads the client's own row and the neighbour rows get no gradient, so the
    graph folds to its item side, and the uploaded rows ``cfg.neighbor_vecs``
    enter through one product with the chunk's ``weights``. With ``d_i`` =
    [i claimed] + the neighbours sharing ``i``, a claimed item's edge weighs
    1/sqrt(n d_i) for a client claiming n items, and ``gram`` is scaled by
    1/sqrt(d_i d_j)."""
    fold, n_items, n_layers = cfg.neighbors, len(global_items), cfg.experiment.model.layers
    users = np.array([cg.user for cg in graphs])
    slots = _ranges(fold.ptr[users], fold.ptr[users + 1])
    shared = np.repeat(np.arange(len(users)) * n_items, np.diff(fold.ptr)[users])
    shared += fold.items[slots]
    received = fold.weights[slots] @ cfg.neighbor_vecs
    row, col, data = _diagonal_block(fold.gram, slots)

    def kernel(keys, linked, owner):
        at, shape = np.searchsorted(keys, shared), (len(keys), len(keys))
        degree = np.zeros(len(keys))
        degree[at] = fold.counts[slots]
        degree[linked] += 1.0
        weights = 1.0 / np.sqrt(np.bincount(owner)[owner] * degree[linked])
        starts = np.searchsorted(owner, np.arange(len(users) + 1))
        edges = sparse.csr_matrix((weights, linked, starts), (len(users), len(keys)))
        scale = 1.0 / np.sqrt(degree[at])
        steps = sparse.csr_matrix((data * scale[row] * scale[col], (at[row], at[col])), shape)
        sent = np.zeros((len(keys), received.shape[1]))
        sent[at] = scale[:, None] * received
        readout = partial(gram_readout, edges=edges, gram=steps, n_layers=n_layers)
        return partial(readout, sent=sent), readout

    return _chunk_steps(graphs, batches, states, global_items, cfg, shared, kernel)


def client_round(
    states: ClientStates, users: Sequence[int], global_items: np.ndarray, cfg: ClientConfig,
    streams: Iterable[Generator],
) -> list[GradientUpdate]:
    """The uploads of ``users`` in one round, in order, each client drawing on
    its own stream in ``streams``: every local graph and BPR batch first, then
    the star clients' arithmetic ``STAR_CHUNK`` at a time in the star kernel
    and the other clients' ``NEIGHBOUR_CHUNK`` at a time in the item-Gram
    kernel, then :func:`client_update` per client."""
    exp = cfg.experiment
    streams, graphs, batches = list(streams), [], []
    for user, rng in zip(users, streams):
        graphs.append(build_client_graph(cfg.split, user, exp.privacy, rng))
        size = exp.train.batch_size or len(graphs[-1].true_ids)
        batches.append(sample_bpr_triples(graphs[-1], size, rng))

    steps: dict[int, LocalStep] = {}
    fold = cfg.neighbors
    expanded = (np.diff(fold.ptr)[users] > 0).tolist() if fold is not None else [False] * len(users)
    for kind, size, run in (
        (False, STAR_CHUNK, _star_steps), (True, NEIGHBOUR_CHUNK, _neighbour_steps)
    ):
        group = [k for k, e in enumerate(expanded) if e == kind]
        for i in range(0, len(group), size):
            chunk = group[i : i + size]
            parts = [graphs[k] for k in chunk], [batches[k] for k in chunk]
            steps.update(zip(chunk, run(*parts, states, global_items, cfg)))
    finish = enumerate(zip(graphs, streams))
    return [client_update(states, cg, steps[k], cfg, rng) for k, (cg, rng) in finish]


def client_update(
    states: ClientStates, cg: ClientGraph, step: LocalStep, cfg: ClientConfig, rng: Generator
) -> GradientUpdate:
    """Finishes client ``cg.user``'s round from its arithmetic ``step``: writes
    its loss, inferred row and user-row step into ``states``, rebinds its
    overlay with the private item-row step, and returns the item gradients
    with decoy pseudo rows in place of the real ones and LDP applied. Every
    draw is on the client's own stream ``rng``, in order: mask, pseudo items,
    positives, negatives (in :func:`client_round`), decoy noise, LDP noise.
    So graphs, batches, decoys and noise do not depend on how the arithmetic
    is batched; only its rounding does."""
    train, privacy = cfg.experiment.train, cfg.experiment.privacy
    user, items, rows = cg.user, step.items, step.rows
    states.losses[user], states.inferred[user] = step.loss, step.inferred
    states.user_rows[user] -= train.eta * step.user_grad

    # private step: untouched rows start from the warm-start table
    own = states.overlays[user]
    merged = _sorted_union(own.local_items, items)
    local = states.local_base[merged]
    local[np.searchsorted(merged, own.local_items)] = own.local_rows
    local[np.searchsorted(merged, items)] -= train.eta * rows
    states.overlays[user] = Overlay(merged, local)

    pseudo = cg.pseudo_ids
    if len(pseudo):
        upload = _sorted_union(items, pseudo)
        block = np.empty((len(upload), rows.shape[1]))
        block[np.searchsorted(upload, items)] = rows
        decoy = np.zeros(len(upload), dtype=bool)
        decoy[np.searchsorted(upload, pseudo)] = True
        # the rows off the decoy mask are the real rows, in id order
        block[decoy] = pseudo_item_gradients(pseudo, block[~decoy], rng)
        items, rows = upload, block

    update = GradientUpdate(items, rows, data_count=len(cg.true_ids))
    return ldp_randomize(update, privacy, rng)


def personalize(
    local_items: np.ndarray,
    cluster_items: np.ndarray,
    global_items: np.ndarray,
    alpha: tuple[float, ...],
) -> np.ndarray:
    """The three item tables mixed by ``personalization.alpha``: (local,
    cluster, global) weights."""
    if not (local_items.shape == cluster_items.shape == global_items.shape):
        raise ValueError("item tables must have identical shapes")
    a_local, a_cluster, a_global = alpha
    if min(alpha) < 0:
        raise ValueError("personalization weights must be >= 0")
    return a_local * local_items + a_cluster * cluster_items + a_global * global_items


def infer_user_embedding(
    user_rows: np.ndarray, item_rows: np.ndarray, graphs: Sequence[np.ndarray], n_layers: int,
    patch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Readout rows of a block of users, user ``k`` on its one-user star graph
    over the item ids ``graphs[k]``; user ``owner[i]`` of ``patch = (owner,
    ids, rows)`` reads ``rows[i]`` for item ``ids[i]``."""
    n, n_items = len(graphs), len(item_rows)
    counts, cols = np.array([len(g) for g in graphs]), np.concatenate(graphs)
    graph = sparse.csr_matrix((np.ones(len(cols)), cols, np.cumsum([0, *counts])), (n, n_items))
    sums = graph @ item_rows
    if patch is not None:
        owner, ids, rows = patch
        member = np.repeat(np.arange(n), counts)
        hit = np.isin(owner * n_items + ids, member * n_items + cols)  # patched graph items
        sums += scatter_rows(owner[hit], rows[hit] - item_rows[ids[hit]], n)
    # a star over the one row s/sqrt(n) reads its user out as one over n rows summing to s
    scaled = sums / np.sqrt(np.maximum(counts, 1))[:, None]
    star = np.where(counts > 0, np.arange(n), -1)
    return star_readout(user_rows, scaled, star, n_layers).users
