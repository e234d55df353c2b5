"""Server-side orchestration: warm start, clustering, selection,
aggregation, rounds and the per-user evaluation models.

Everything runs in one thread. Every random draw is keyed by (phase, round,
client), so results do not depend on the order in which clients are visited.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

from .client import (
    ClientConfig,
    ClientState,
    client_update,
    infer_user_embedding,
    init_client_states,
    personalize,
)
from .config import ExperimentConfig
from .data import SplitDataset
from .errors import ConfigError, NumericError
from .evaluation import UserEvalModel, evaluate_cutoffs
from .gnn import EmbeddingTable, GradientUpdate, init_table, scatter_rows
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
    Each id's weighted rows are summed in update order."""
    if not updates:
        raise ValueError("nothing to aggregate")
    total = sum(u.data_count for u in updates)
    if total <= 0:
        raise ValueError("all data counts are zero")
    ids = np.concatenate([u.items for u in updates])
    rows = np.concatenate([u.data_count / total * u.item_grads for u in updates])
    items = np.unique(ids)
    summed = scatter_rows(np.searchsorted(items, ids), rows, len(items))
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


def neighborhood_match(
    uploads: Mapping[int, Sequence[str]], key: bytes
) -> dict[int, dict[str, tuple[str, ...]]]:
    """For each client and each uploaded item token, the anonymous tokens of
    the other clients sharing it. Raw ids never appear in the responses."""
    owners: dict[str, list[int]] = defaultdict(list)
    for client in sorted(uploads):
        for token in uploads[client]:
            owners[token].append(client)
    anon = {client: user_token(client, key) for client in uploads}
    responses: dict[int, dict[str, tuple[str, ...]]] = {}
    for client in sorted(uploads):
        entry: dict[str, tuple[str, ...]] = {}
        for token in uploads[client]:
            others = tuple(anon[o] for o in owners[token] if o != client)
            if others:
                entry[token] = others
        responses[client] = entry
    return responses


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
    tables with their assignment, every client's state and the warm-start
    item table under the clients' overlays. No table is ever written in place
    (``apply_update`` returns a copy, ``client_update`` rebinds), so records
    and snapshots may share arrays."""

    global_items: np.ndarray
    cluster_items: dict[int, np.ndarray]
    assignment: ClusterAssignment | None
    states: dict[int, ClientState]
    local_base: np.ndarray
    reports: list[RoundReport]
    final_round: int = 0

    @property
    def user_table(self) -> np.ndarray:
        return np.vstack([self.states[u].user_vec for u in range(len(self.states))])

    def checkpoint_table(self) -> EmbeddingTable:
        return EmbeddingTable(self.user_table, self.global_items)


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
    states: dict[int, ClientState], cfg: ExperimentConfig, label: str, round_idx: int
) -> np.ndarray:
    """Every user's uploaded embedding as one ``(N, d)`` block in user order,
    LDP-noised on ``substream(seed, label, round, user)`` when privacy is
    enabled."""
    block = np.vstack([states[u].last_inferred for u in range(len(states))])
    if not cfg.privacy.enabled:
        return block
    users = range(len(block) if cfg.privacy.laplace_lambda > 0 else 0)
    streams = substreams(cfg.train.seed, label, round_idx, ids=users)
    return randomize_vector(block, cfg.privacy, streams)


def _neighbor_setup(cfg: ExperimentConfig, split: SplitDataset):
    """One-hop expansion inputs from the keyed matcher, each item tokenised
    once. Each anonymous user token becomes a handle, its rank among all
    users' tokens, so clients see neither tokens nor raw ids. Returns per user
    sorted (handle, item) int64 rows and ``by_handle``, each handle's user."""
    key = matcher_key(cfg.train.seed)
    token_of = {i: item_token(i, key) for i in np.unique(split.indices).tolist()}
    item_of = {token: i for i, token in token_of.items()}
    uploads = {
        u: [token_of[i] for i in split.train_items(u).tolist()]
        for u in range(split.n_users)
    }
    responses = neighborhood_match(uploads, key)
    anon = [user_token(u, key) for u in range(split.n_users)]
    by_handle = np.argsort(anon)
    handle_of = {anon[u]: h for h, u in enumerate(by_handle.tolist())}
    pairs = (  # responses run in user order
        sorted((handle_of[a], item_of[t]) for t, anons in entry.items() for a in anons)
        for entry in responses.values()
    )
    return [np.array(p, dtype=np.int64).reshape(-1, 2) for p in pairs], by_handle


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
        yield np.union1d(own, sample_pseudo_items(split.n_items, own, p, stream)) if p else own


def eval_model(
    cfg: ExperimentConfig, user_row: np.ndarray, item_rows: np.ndarray, graph_items: np.ndarray
) -> UserEvalModel:
    """One user's model for the ranking protocol; candidates exclude its
    local graph's items (``eval_graphs``). Item scores use the raw rows: every
    candidate is isolated there, so propagation would only rescale them."""
    user_emb = infer_user_embedding(user_row, item_rows, graph_items, cfg.model.layers)
    return UserEvalModel(user_emb, item_rows, graph_items)


def build_eval_models(
    split: SplitDataset,
    states: dict[int, ClientState],
    rows: np.ndarray,
    cluster_items: np.ndarray,
    global_items: np.ndarray,
    cfg: ExperimentConfig,
    user: int,
    graph_items: np.ndarray,
) -> dict[int, UserEvalModel]:
    """``{user: model}`` for one cluster member on its ``eval_graphs`` items:
    its overlay rows, mixed by ``personalization.alpha``, are written into
    ``rows`` (the cluster's mix over the warm-start table) in place, and the
    model's ``scores`` are taken; the caller restores the rows. ``split`` is
    unread: ``bench/tracer.py`` hooks this and reads ``states`` as argument 1."""
    state, alpha = states[user], cfg.personalization.alpha
    ids = state.local_items
    rows[ids] = personalize(state.local_rows, cluster_items[ids], global_items[ids], alpha)
    user_model = eval_model(cfg, state.user_vec, rows, graph_items)
    user_model.scores  # cached while the overlay rows are in place
    return {user: user_model}


def personalized_models(
    split: SplitDataset, model: TrainResult, cfg: ExperimentConfig
) -> Iterator[tuple[int, UserEvalModel]]:
    """``(user, model)`` for every user on the item table mixed by
    ``personalization.alpha``, cluster by cluster, from ``build_eval_models``
    on the cluster's one mix, restored before the next member. A model's
    ``scores`` are taken before it is yielded; its ``item_rows`` is the shared
    table, which holds this user's mix only until the next model is asked for."""
    states, assignment, global_items = model.states, model.assignment, model.global_items
    alpha = cfg.personalization.alpha
    for c in range(assignment.k):  # k-means leaves no cluster empty
        cluster_items = model.cluster_items[c]
        rows = personalize(model.local_base, cluster_items, global_items, alpha)
        members = np.flatnonzero(assignment.assignment == c).tolist()
        for user, graph_items in zip(members, eval_graphs(cfg, split, members)):
            ids = states[user].local_items
            saved = rows[ids]
            yield from build_eval_models(
                split, states, rows, cluster_items, global_items, cfg, user, graph_items
            ).items()
            rows[ids] = saved


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
    data with early stopping on NDCG@20. Returns the best-validation
    snapshot of the model, with every round's report.
    """
    seed = cfg.train.seed
    n_users = split.n_users
    # the global and the warm-start item table start as one array
    model = TrainResult(table.items, {}, None, init_client_states(table), table.items, [])

    k_clusters = min(cfg.cluster.k, n_users)
    budget = min(cfg.train.clients_per_round, n_users)
    es_cutoff = 20 if 20 in cfg.eval.cutoffs else max(cfg.eval.cutoffs)
    neighbors, by_handle = (
        _neighbor_setup(cfg, split) if cfg.graph.neighbor_expansion else ((), None)
    )
    ctx = ClientConfig(split, cfg, model.local_base, neighbors)
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

    states, eta = model.states, cfg.train.eta  # the states dict is never rebound
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
            keyed = zip(selected, substreams(seed, "client", round_idx, ids=selected))
            updates = [client_update(states[u], model.global_items, ctx, s) for u, s in keyed]
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
        if not all(
            np.isfinite(states[u].user_vec).all() and np.isfinite(states[u].local_rows).all()
            for u in selected
        ):
            raise NumericError(f"non-finite client state after round {round_idx}")

        train_loss = float(np.mean([states[u].last_loss for u in selected]))
        val_recall = val_ndcg = None
        if round_idx % cfg.train.eval_every == 0:
            models = personalized_models(split, model, cfg)
            result = evaluate_cutoffs(split, models, (es_cutoff,))["validation"][es_cutoff]
            val_recall, val_ndcg = result.recall, result.ndcg
            if val_ndcg > best_ndcg:
                best_ndcg, evals_since_best = val_ndcg, 0
                # no table is written in place, so the snapshot shares them
                best = replace(
                    model,
                    cluster_items=dict(model.cluster_items),
                    states={u: replace(s) for u, s in states.items()},
                    final_round=round_idx,
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
        return model
    return replace(best, reports=model.reports)
