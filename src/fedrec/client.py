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
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator
from scipy import sparse
from scipy.special import expit

from .config import ExperimentConfig
from .data import ClientGraph, SplitDataset, build_client_graph
from .errors import DataError
from .gnn import (
    EmbeddingTable,
    GradientUpdate,
    PropagationOperator,
    bpr_gradients,
    scatter_rows,
    star_readout,
)
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


@dataclass(eq=False)
class ClientConfig:
    """Inputs shared by every client update; only ``neighbor_vecs`` changes
    from round to round. The settings are those of ``experiment``."""

    split: SplitDataset
    experiment: ExperimentConfig
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


STAR_CHUNK = 16  # star clients per kernel pass: a chunk's blocks stay in cache


# a client's arithmetic: loss, inferred row, user-row gradient, upload ids and rows
LocalStep = namedtuple("LocalStep", "loss inferred user_grad items rows")


def _star_steps(graphs, batches, states, global_items, cfg: ClientConfig) -> list[LocalStep]:
    """The steps of a chunk of star clients: BPR through :func:`star_readout`
    forward and back, each client's loss its own batch's. A client's item
    space (claimed items and negatives, as on its compact operator) is one
    run of rows keyed ``client * M + item``."""
    exp, n_items, n = cfg.experiment, len(global_items), len(graphs)
    gamma, offsets = exp.train.gamma, np.arange(n) * n_items
    claimed = [cg.true_items | cg.pseudo_items for cg in graphs]
    linked = np.fromiter(chain.from_iterable(claimed), np.int64)
    linked += np.repeat(offsets, [len(c) for c in claimed])
    sizes = np.array([len(b) for b in batches])
    c = np.repeat(np.arange(n), sizes)
    ends = np.concatenate(batches)[:, 1:] + offsets[c][:, None]
    keys = np.union1d(linked, ends[:, 1])  # positives are claimed
    star = np.full(len(keys), -1)
    star[np.searchsorted(keys, linked)] = linked // n_items
    p, j = np.searchsorted(keys, ends).T
    raw_users = states.user_rows[[cg.user for cg in graphs]]
    raw_items = global_items[keys % n_items]
    final = star_readout(raw_users, raw_items, star, exp.model.layers)
    diff = final.items[p] - final.items[j]
    m = np.einsum("nd,nd->n", final.users[c], diff)
    losses = np.bincount(c, np.logaddexp(0.0, -m), n) / sizes
    coef = -expit(-m)[:, None] / sizes[c][:, None]
    pulled = coef * final.users[c]
    g_items = scatter_rows(np.concatenate((p, j)), np.concatenate((pulled, -pulled)), len(keys))
    grads = star_readout(scatter_rows(c, coef * diff, n), g_items, star, exp.model.layers)
    touched = np.unique(np.concatenate((p, j)))
    if gamma:
        norms = np.bincount(keys[touched] // n_items, np.sum(raw_items[touched] ** 2, axis=1), n)
        losses += gamma * (np.sum(raw_users**2, axis=1) + norms)
        grads.users += 2.0 * gamma * raw_users
        grads.items[touched] += 2.0 * gamma * raw_items[touched]
    support = np.union1d(np.flatnonzero(grads.items.any(axis=1)), touched)
    cuts = np.searchsorted(keys[support], offsets[1:])
    items, rows = np.split(keys[support] % n_items, cuts), np.split(grads.items[support], cuts)
    return list(map(LocalStep, losses.tolist(), final.users, grads.users, items, rows))


def client_round(
    states: ClientStates, users: Sequence[int], global_items: np.ndarray, cfg: ClientConfig,
    streams: Iterable[Generator],
) -> list[GradientUpdate]:
    """The uploads of ``users`` in one round, in order, each client drawing on
    its own stream in ``streams``: every local graph and BPR batch first, then
    the star clients' arithmetic ``STAR_CHUNK`` at a time in the star kernel,
    each client with neighbour rows on its own compact operator (once forward,
    once back), then :func:`client_update` per client."""
    exp = cfg.experiment
    streams, graphs, batches = list(streams), [], []
    for user, rng in zip(users, streams):
        nb = cfg.neighbors[user] if cfg.neighbors else ()
        graphs.append(build_client_graph(cfg.split, user, exp.privacy, rng, neighbors=nb))
        size = exp.train.batch_size or len(graphs[-1].true_items)
        batches.append(sample_bpr_triples(graphs[-1], size, rng))

    steps: dict[int, LocalStep] = {}
    stars = [k for k, cg in enumerate(graphs) if not len(cg.neighbor_users)]
    for i in range(0, len(stars), STAR_CHUNK):
        chunk = stars[i : i + STAR_CHUNK]
        parts = [graphs[k] for k in chunk], [batches[k] for k in chunk]
        steps.update(zip(chunk, _star_steps(*parts, states, global_items, cfg)))
    for k in set(range(len(graphs))) - steps.keys():
        user_vec = states.user_rows[graphs[k].user]
        op, raw, local, space = _local_operator(
            graphs[k], batches[k], exp.model.layers, user_vec, global_items, cfg.neighbor_vecs
        )
        loss, final, grads = bpr_gradients(op, raw, local, exp.train.gamma)
        support = np.union1d(np.flatnonzero(grads.items.any(axis=1)), local[:, 1:])
        upload = space[support], grads.items[support]
        # copies: views would keep the client's operator-sized blocks alive
        steps[k] = LocalStep(loss, final.users[0].copy(), grads.users[0].copy(), *upload)
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
    merged = np.union1d(own.local_items, items)
    local = states.local_base[merged]
    local[np.searchsorted(merged, own.local_items)] = own.local_rows
    local[np.searchsorted(merged, items)] -= train.eta * rows
    states.overlays[user] = Overlay(merged, local)

    if cg.pseudo_items:
        pseudo = np.array(sorted(cg.pseudo_items), dtype=np.int64)
        decoys = pseudo_item_gradients(pseudo, rows[~np.isin(items, pseudo)], rng)
        upload = np.union1d(items, pseudo)
        block = np.empty((len(upload), rows.shape[1]))
        block[np.searchsorted(upload, items)] = rows
        block[np.searchsorted(upload, pseudo)] = decoys
        items, rows = upload, block

    update = GradientUpdate(items, rows, data_count=len(cg.true_items))
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
