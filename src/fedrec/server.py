"""Server-side orchestration: warm start, clustering, selection,
aggregation, rounds and the per-user evaluation models.

Everything runs in one thread. Every random draw is keyed by (phase, round,
client), so results do not depend on the order in which clients are visited.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .client import (
    ClientConfig,
    ClientStates,
    NeighbourFold,
    Overlay,
    client_round,
    fold_neighbours,
    infer_user_embedding,
    personalize,
)
from .config import ExperimentConfig
from .data import SplitDataset
from .errors import ConfigError, DataError, NumericError
from .evaluation import EVAL_BLOCK, UserEvalModel, rank_metrics, user_ranks
from .gnn import EmbeddingTable, GradientUpdate, init_table, sorted_unique
from .pretrain import PretrainResult, assemble_pretraining_graph, pretrain
from .privacy import randomize_vector, sample_pseudo_items
from .rng import substream, substreams


@dataclass(eq=False)
class ClusterAssignment:
    """User-to-cluster mapping plus the centroids that induced it."""

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    inertia_path: tuple[float, ...] = ()


def _kmeans_pp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: each next center is drawn with probability
    proportional to its squared distance from the chosen ones."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _nearest_centres(X: np.ndarray, xx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's first nearest centre by the exact ``((x - c) ** 2).sum()``.

    One product estimates all distances as ``|x|^2 - 2 x.c + |c|^2``. The
    slack exceeds twice the rounding and underflow error of that estimate and
    of the exact sum, so a centre estimated beyond a row's least estimate plus
    the slack is exactly farther; exact sums are taken only within it."""
    fp = np.finfo(np.float64)
    with np.errstate(all="ignore"):  # a blow-up takes the per-centre sums
        cc = np.einsum("ij,ij->i", centers, centers)
        scale = (np.sqrt(xx) + np.sqrt(cc.max())) ** 2
        est = xx[:, None] - 2.0 * (X @ centers.T) + cc
    if not scale.max() <= fp.max / 4:  # NaN too; below it no exact sum overflows
        # one centre at a time: no N x k x d temporary; an overflow raises here
        return np.column_stack([((X - m) ** 2).sum(axis=1) for m in centers]).argmin(axis=1)
    slack = 8 * (X.shape[1] + 2) * (fp.eps * scale + fp.tiny)
    assign = est.argmin(axis=1)
    near = est <= (est[np.arange(len(est)), assign] + slack)[:, None]
    rows = np.flatnonzero(near.sum(axis=1) > 1)
    r, c = np.nonzero(near[rows])
    exact = np.full((rows.size, len(centers)), np.inf)
    exact[r, c] = ((X[rows[r]] - centers[c]) ** 2).sum(axis=1)
    assign[rows] = exact.argmin(axis=1)
    return assign


def cluster_users(
    user_embeddings: np.ndarray, k: int, rng: np.random.Generator
) -> ClusterAssignment:
    """Lloyd iterations until assignments stabilize (at most 100).

    Empty clusters are revived by moving over the point farthest from its
    own centroid, restricted to points whose cluster keeps >= 2 members.
    """
    X = np.asarray(user_embeddings, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    centers = _kmeans_pp(X, k, rng)
    with np.errstate(all="ignore"):
        xx = np.einsum("ij,ij->i", X, X)
    assign = np.full(n, -1, dtype=np.int64)
    inertia_path: list[float] = []
    for _ in range(100):
        new_assign = _nearest_centres(X, xx, centers)
        counts = np.bincount(new_assign, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                continue
            own_dist = ((X - centers[new_assign]) ** 2).sum(axis=1)
            own_dist[counts[new_assign] < 2] = -np.inf
            donor = int(own_dist.argmax())
            counts[new_assign[donor]] -= 1
            new_assign[donor] = c
            counts[c] = 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[c] = X[assign == c].mean(axis=0)
        diff = centers[assign]  # a copy, worked in place: one N x d buffer
        inertia_path.append(float(np.square(np.subtract(X, diff, out=diff), out=diff).sum()))
    return ClusterAssignment(k, assign, centers, tuple(inertia_path))


def select_clients(
    assign: ClusterAssignment, budget: int, rng: np.random.Generator
) -> list[int]:
    """Cluster-proportional selection.

    Quotas come from largest-remainder apportionment of the budget by cluster
    size (ties to the lower cluster id); when the budget covers them, every
    nonempty cluster keeps at least one slot. Members are then drawn
    uniformly without replacement within each cluster.
    """
    n = len(assign.assignment)
    if not 1 <= budget <= n:
        raise ValueError(f"need 1 <= budget <= {n}, got {budget}")
    sizes = np.bincount(assign.assignment, minlength=assign.k)
    shares = budget * sizes / n
    quotas = np.floor(shares).astype(np.int64)
    remainders = shares - quotas
    leftover = int(budget - quotas.sum())
    order = sorted(range(assign.k), key=lambda c: (-remainders[c], c))
    for c in order[:leftover]:
        quotas[c] += 1
    nonempty = [c for c in range(assign.k) if sizes[c] > 0]
    if budget >= len(nonempty):
        for c in nonempty:
            if quotas[c] > 0:
                continue
            donor = max(
                (x for x in range(assign.k) if quotas[x] >= 2),
                key=lambda x: (quotas[x], -x),
            )
            quotas[donor] -= 1
            quotas[c] += 1
    selected: list[int] = []
    for c in range(assign.k):
        if quotas[c] == 0:
            continue
        members = np.flatnonzero(assign.assignment == c)
        picked = rng.choice(members, size=int(quotas[c]), replace=False)
        selected.extend(int(x) for x in picked)
    return sorted(selected)


def aggregate(updates: Sequence[GradientUpdate]) -> GradientUpdate:
    """Data-count weighted average; rows absent from an update count as zero.

    A streaming sum: one zero block over the uploads' distinct ids, into
    which each upload's weighted rows are added in place, in update order,
    so no copy of all the uploads' rows is made."""
    if not updates:
        raise ValueError("nothing to aggregate")
    total = sum(u.data_count for u in updates)
    if total <= 0:
        raise ValueError("all data counts are zero")
    items = sorted_unique(*(u.items for u in updates))
    summed = np.zeros((len(items), updates[0].item_grads.shape[1]))
    for u in updates:  # an upload's ids are distinct, so no cell is added twice
        summed[np.searchsorted(items, u.items)] += u.data_count / total * u.item_grads
    return GradientUpdate(items, summed, total)


def apply_update(
    item_table: np.ndarray, update: GradientUpdate, eta: float
) -> np.ndarray:
    """New item table with eta-scaled gradient rows subtracted."""
    if eta <= 0:
        raise ValueError("eta must be > 0")
    out = item_table.copy()
    out[update.items] -= eta * update.item_grads
    return out


def matcher_key(seed: int) -> bytes:
    return hashlib.blake2b(
        f"matcher:{seed}".encode(), digest_size=32, person=b"fedrec-match"
    ).digest()


def item_token(item: int, key: bytes) -> str:
    """Keyed one-way token standing in for an encrypted item id."""
    return hashlib.blake2b(f"i:{item}".encode(), key=key, digest_size=16).hexdigest()


def user_token(user: int, key: bytes) -> str:
    """Anonymous user handle; the key never leaves the simulation."""
    return hashlib.blake2b(f"u:{user}".encode(), key=key, digest_size=16).hexdigest()


@dataclass(eq=False)
class RoundReport:
    round: int
    selected: tuple[int, ...]
    n_clusters: int
    train_loss: float
    val_recall: float | None
    val_ndcg: float | None
    wall_time: float

    def record(self) -> dict:
        # wall_time stays out of the serialized record so reruns are
        # byte-identical
        record = asdict(self)
        del record["wall_time"]
        return record


@dataclass(eq=False)
class TrainResult:
    """The model the round loop trains: the global item table, the cluster
    tables with their assignment, every client's state and, once returned,
    its ``user_ranks``. No item table is written in place (``apply_update``
    returns a copy), so snapshots share them; client blocks are written by row."""

    global_items: np.ndarray
    cluster_items: dict[int, np.ndarray]
    assignment: ClusterAssignment | None
    states: ClientStates
    reports: list[RoundReport]
    final_round: int = 0
    ranks: dict[int, tuple[int | None, int | None]] = field(default_factory=dict)

    def checkpoint_table(self) -> EmbeddingTable:
        return EmbeddingTable(self.states.user_rows, self.global_items)


def warm_up(cfg: ExperimentConfig, split: SplitDataset) -> PretrainResult:
    """The starting table of training: the seeded random init, then
    ``pretrain.epochs`` contrastive epochs on the server's graph, with
    ``pretrain.edge_add_count`` -1 resolved to ``pseudo_items_p`` per user
    and ``pretrain.eta`` 0 to ``train.eta``. Zero epochs return the init and
    assemble no graph."""
    seed, pre = cfg.train.seed, cfg.pretrain
    table = init_table(split.n_users, split.n_items, cfg.model.dim, substream(seed, "init"))
    if pre.epochs == 0:
        return PretrainResult(table, ())
    graph = assemble_pretraining_graph(split, cfg.privacy, seed)
    added = pre.edge_add_count
    if added == -1:
        added = cfg.privacy.pseudo_items_p * split.n_users
    lacking = split.n_users * split.n_items - len(graph.edges)
    if added > lacking:
        raise ConfigError(
            f"pretrain.edge_add_count asks for {added} added edges per view "
            f"(-1 = pseudo_items_p per user) but the graph lacks only {lacking}"
        )
    pre = replace(pre, edge_add_count=added, eta=pre.eta or cfg.train.eta)
    # a blow-up here is named by the check below, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = pretrain(
            graph, table, pre.epochs, pre, cfg.model.layers, substream(seed, "pretrain")
        )
    if not result.table.allfinite():
        raise NumericError("non-finite embeddings after pre-training")
    return result


def _noised_uploads(
    states: ClientStates, cfg: ExperimentConfig, label: str, round_idx: int
) -> np.ndarray:
    """Every user's uploaded embedding as a new ``(N, d)`` block in user
    order, LDP-noised on ``substream(seed, label, round, user)`` when privacy
    is enabled."""
    block = states.inferred
    if not cfg.privacy.enabled:
        return block.copy()
    users = range(len(block) if cfg.privacy.laplace_lambda > 0 else 0)
    streams = substreams(cfg.train.seed, label, round_idx, ids=users)
    return randomize_vector(block, cfg.privacy, streams)


def _neighbor_setup(cfg: ExperimentConfig, split: SplitDataset) -> tuple[NeighbourFold, np.ndarray]:
    """One-hop expansion inputs from the keyed matcher, which sees tokens
    only: it groups the training pairs by the rank of each item's token and
    names every other owner of the item by a handle, the rank of that user's
    token, so clients see neither tokens nor raw ids. Returns every user's
    (handle, item) rows as :func:`fold_neighbours` folds them and
    ``by_handle``, each handle's user."""
    key = matcher_key(cfg.train.seed)
    n_users, n_pairs = split.n_users, len(split.indices)
    user_bits, pair_bits = n_users.bit_length(), n_pairs.bit_length()
    if 2 * user_bits + pair_bits > 63:
        raise DataError("too many training pairs to match in one int64 sort")
    # the ranks of the keyed tokens, which are distinct
    rank = np.argsort(np.argsort([item_token(i, key) for i in range(split.n_items)]))
    rank = rank[split.indices]
    by_handle = np.argsort([user_token(u, key) for u in range(n_users)])
    handle = np.argsort(by_handle)
    owner = np.repeat(np.arange(n_users), np.diff(split.indptr))
    order = np.lexsort((owner, rank))  # the pairs grouped by item token
    starts = np.flatnonzero(np.concatenate(([True], np.diff(rank[order]) != 0))[:n_pairs])
    sizes = np.diff(np.append(starts, n_pairs))
    # each pair meets every pair of its group; a row's key is (user, handle, pair)
    size, start = np.repeat(sizes, sizes), np.repeat(starts, sizes)
    offset = np.cumsum(size) - size  # where each pair's meetings begin
    rows = np.repeat((owner[order] << (user_bits + pair_bits)) | order, size)
    partner = np.repeat(start - offset, size) + np.arange(len(rows))
    rows |= (handle[owner[order]] << pair_bits)[partner]
    # a pair meets itself at its own place in its group
    rows = np.delete(rows, offset + np.arange(n_pairs) - start)
    del rank, handle, owner, order, starts, sizes, size, start, offset, partner  # before the fold
    rows.sort()
    items = split.indices[rows & ((1 << pair_bits) - 1)]
    rows >>= pair_bits
    user = rows >> user_bits
    rows &= (1 << user_bits) - 1  # the handles
    return fold_neighbours(user, rows, items, n_users, split.n_items), by_handle


def eval_graphs(
    cfg: ExperimentConfig, split: SplitDataset, users: Sequence[int]
) -> Iterator[np.ndarray]:
    """Each user's evaluation-time local graph items: the training items
    plus pseudo items on ``substream(seed, "eval-graph", user)``, a
    round-independent stream made only when ``pseudo_items_p`` > 0."""
    p = cfg.privacy.pseudo_items_p
    streams = substreams(cfg.train.seed, "eval-graph", ids=users) if p else repeat(None)
    for user, stream in zip(users, streams):
        own = split.train_items(user)
        if p:  # pseudo items lie outside the training items, so one sort joins them
            own = np.concatenate((own, sample_pseudo_items(split.n_items, own, p, stream)))
            own.sort()
        yield own


def eval_models(
    cfg: ExperimentConfig, split: SplitDataset, users: list[int], table: EmbeddingTable, patch=None
) -> dict[int, UserEvalModel]:
    """``{user: model}`` for a block of ``users`` on ``table``, each excluding
    its ``eval_graphs`` items; member ``owner[i]`` of ``patch = (owner, ids,
    rows)`` sees ``rows[i]`` for item ``ids[i]``. Scores are one product on the
    raw item rows (candidates are isolated on the star), patches rewritten."""
    graphs, item_rows = list(eval_graphs(cfg, split, users)), table.items
    embs = infer_user_embedding(table.users[users], item_rows, graphs, cfg.model.layers, patch)
    scores = embs @ item_rows.T
    if patch is not None:
        owner, ids, rows = patch
        scores[owner, ids] = np.einsum("nd,nd->n", rows, embs[owner])
    models = zip(users, embs, graphs, scores)
    return {u: UserEvalModel(e, item_rows, g, r) for u, e, g, r in models}


def build_eval_models(
    split: SplitDataset, overlays: Sequence[Overlay], rows: np.ndarray, cluster_items: np.ndarray,
    model: TrainResult, cfg: ExperimentConfig, users: list[int],
) -> dict[int, UserEvalModel]:
    """``eval_models`` for a block of a cluster's members on ``rows``, its mix,
    each member's overlay ``overlays[user]`` mixed by ``personalization.alpha``
    patched in. ``bench/tracer.py`` hooks this and reads argument 1."""
    own = [overlays[user] for user in users]
    ids, local = (np.concatenate(part) for part in zip(*own))
    owner = np.repeat(np.arange(len(own)), [len(o.local_items) for o in own])
    alpha, global_items = cfg.personalization.alpha, model.global_items
    mixed = personalize(local, cluster_items[ids], global_items[ids], alpha)
    table = EmbeddingTable(model.states.user_rows, rows)
    return eval_models(cfg, split, users, table, (owner, ids, mixed))


def personalized_models(
    split: SplitDataset, model: TrainResult, cfg: ExperimentConfig
) -> Iterator[tuple[int, UserEvalModel]]:
    """``(user, model)`` for every user on the item table mixed by
    ``personalization.alpha``, cluster by cluster and ``EVAL_BLOCK`` members
    at a time, from ``build_eval_models`` on the cluster's one mix."""
    states, assignment, alpha = model.states, model.assignment, cfg.personalization.alpha
    for c in range(assignment.k):  # k-means leaves no cluster empty
        cluster_items = model.cluster_items[c]
        rows = personalize(states.local_base, cluster_items, model.global_items, alpha)
        members = np.flatnonzero(assignment.assignment == c).tolist()
        for i in range(0, len(members), EVAL_BLOCK):
            block = members[i : i + EVAL_BLOCK]
            yield from build_eval_models(
                split, states.overlays, rows, cluster_items, model, cfg, block
            ).items()


def run_training(
    cfg: ExperimentConfig,
    split: SplitDataset,
    table: EmbeddingTable,
    verbose: bool = False,
) -> TrainResult:
    """Full federated loop from ``table``, which it reads and never writes.

    Per round: (re)cluster on uploaded embeddings, select clients in
    proportion to cluster sizes, collect privacy-protected client updates,
    apply the weighted-average step to the global table and to each cluster
    table, and periodically evaluate the personalized models on validation
    data with early stopping on NDCG@20. Returns the best-validation snapshot
    with every round's report and the ranks that chose it (else its own).
    """
    seed = cfg.train.seed
    n_users = split.n_users
    # the global and the warm-start item table start as one array
    model = TrainResult(table.items, {}, None, ClientStates.start(table), [])

    k_clusters = min(cfg.cluster.k, n_users)
    budget = min(cfg.train.clients_per_round, n_users)
    es_cutoff = 20 if 20 in cfg.eval.cutoffs else max(cfg.eval.cutoffs)
    ctx = ClientConfig(split, cfg)
    if cfg.graph.neighbor_expansion:
        ctx.neighbors, by_handle = _neighbor_setup(cfg, split)
    best, best_ndcg, evals_since_best = None, -np.inf, 0

    def recluster(round_idx: int) -> None:
        X = _noised_uploads(model.states, cfg, "cluster-upload", round_idx)
        rng = substream(seed, "cluster", round_idx)
        bad = NumericError(f"non-finite clustering input or distance in round {round_idx}")
        if not np.isfinite(X).all():
            raise bad
        try:  # an overflowing distance is named here, not by a warning
            with np.errstate(over="raise", invalid="raise"):
                model.assignment = cluster_users(X, k_clusters, rng)
        except FloatingPointError:
            raise bad from None
        # cluster tables restart from the current global table: cluster
        # identities do not persist across re-clusterings
        model.cluster_items = dict.fromkeys(range(k_clusters), model.global_items)

    states, eta = model.states, cfg.train.eta  # the states record is never rebound
    for round_idx in range(1, cfg.train.max_rounds + 1):
        started = time.perf_counter()
        if (round_idx - 1) % cfg.cluster.recluster_every == 0:
            recluster(round_idx)
        rng = substream(seed, "select", round_idx)
        selected = select_clients(model.assignment, budget, rng)
        if cfg.graph.neighbor_expansion:
            # uploaded user embeddings in handle order, for one-hop expansion
            uploads = _noised_uploads(states, cfg, "neighbor-upload", round_idx)
            ctx.neighbor_vecs = uploads[by_handle]

        # a blow-up here is named by the checks below, not by a warning
        with np.errstate(over="ignore", invalid="ignore"):
            streams = substreams(seed, "client", round_idx, ids=selected)
            updates = client_round(states, selected, model.global_items, ctx, streams)
            model.global_items = apply_update(model.global_items, aggregate(updates), eta)
            by_cluster: dict[int, list[GradientUpdate]] = defaultdict(list)
            for user, update in zip(selected, updates):
                by_cluster[int(model.assignment.assignment[user])].append(update)
            for c in sorted(by_cluster):
                step = aggregate(by_cluster[c])
                model.cluster_items[c] = apply_update(model.cluster_items[c], step, eta)
        tables = [model.global_items] + [model.cluster_items[c] for c in by_cluster]
        if not all(np.isfinite(t).all() for t in tables):
            raise NumericError(f"non-finite global or cluster table after round {round_idx}")
        blocks = [states.user_rows[selected]] + [states.overlays[u].local_rows for u in selected]
        if not all(np.isfinite(b).all() for b in blocks):
            raise NumericError(f"non-finite client state after round {round_idx}")
        del updates, by_cluster, step  # freed before the next round's uploads are built

        train_loss = float(np.mean(states.losses[selected]))
        val_recall = val_ndcg = None
        if round_idx % cfg.train.eval_every == 0:
            ranks = user_ranks(split, personalized_models(split, model, cfg))
            result = rank_metrics(ranks, (es_cutoff,))["validation"][es_cutoff]
            val_recall, val_ndcg = result.recall, result.ndcg
            if val_ndcg > best_ndcg:
                best_ndcg, evals_since_best = val_ndcg, 0
                # no item table is written in place, so the snapshot shares them
                best = replace(
                    model,
                    cluster_items=dict(model.cluster_items),
                    states=states.copy(),
                    final_round=round_idx,
                    ranks=ranks,
                )
            else:
                evals_since_best += 1

        model.reports.append(
            RoundReport(
                round=round_idx,
                selected=tuple(selected),
                n_clusters=k_clusters,
                train_loss=train_loss,
                val_recall=val_recall,
                val_ndcg=val_ndcg,
                wall_time=time.perf_counter() - started,
            )
        )
        if verbose and (val_ndcg is not None or round_idx == 1):
            note = "" if val_ndcg is None else f"  val ndcg@{es_cutoff} {val_ndcg:.4f}"
            print(f"round {round_idx:4d}  loss {train_loss:.4f}{note}")
        if evals_since_best >= cfg.train.patience:
            break

    if model.assignment is None:
        recluster(0)
    if best is None:
        model.final_round = len(model.reports)
        model.ranks = user_ranks(split, personalized_models(split, model, cfg))
        return model
    return replace(best, reports=model.reports)
