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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .client import (
    ClientConfig,
    ClientState,
    PersonalizationWeights,
    client_update,
    infer_user_embedding,
    init_client_states,
    personalize,
)
from .config import ExperimentConfig, edge_add_count, pretrain_eta
from .data import SplitDataset
from .errors import ConfigError, DataError, NumericError
from .evaluation import UserEvalModel, evaluate_cutoffs
from .gnn import EmbeddingTable, GradientUpdate, init_table
from .pretrain import (
    AugmentationConfig,
    PretrainResult,
    assemble_pretraining_graph,
    pretrain,
)
from .privacy import (
    LdpConfig,
    PrivacyConfig,
    randomize_vector,
    sample_pseudo_items,
)
from .rng import substream


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
    assign = np.full(n, -1, dtype=np.int64)
    inertia_path: list[float] = []
    for _ in range(100):
        # one centre at a time: no N x k x d temporary
        d2 = np.column_stack([((X - m) ** 2).sum(axis=1) for m in centers])
        new_assign = d2.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                continue
            own_dist = d2[np.arange(n), new_assign].copy()
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
        inertia_path.append(float(((X - centers[assign]) ** 2).sum()))
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
    summed = np.zeros((len(items), rows.shape[1]))
    np.add.at(summed, np.searchsorted(items, ids), rows)
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
    global_items: np.ndarray
    user_table: np.ndarray
    cluster_items: dict[int, np.ndarray]
    assignment: ClusterAssignment
    reports: list[RoundReport]
    states: dict[int, ClientState]
    local_base: np.ndarray
    final_round: int

    def checkpoint_table(self) -> EmbeddingTable:
        return EmbeddingTable(self.user_table, self.global_items)


def privacy_settings(cfg: ExperimentConfig) -> PrivacyConfig:
    return PrivacyConfig(
        mask_ratio=cfg.privacy.mask_ratio,
        pseudo_items_p=cfg.privacy.pseudo_items_p,
        ldp=LdpConfig(
            cfg.privacy.clip_delta,
            cfg.privacy.laplace_lambda,
            enabled=cfg.privacy.enabled,
        ),
    )


def augmentation_settings(cfg: ExperimentConfig, n_users: int) -> AugmentationConfig:
    return AugmentationConfig(
        node_keep_prob=cfg.pretrain.node_keep_prob,
        edge_add_count=edge_add_count(cfg, n_users),
        noise_magnitude=cfg.pretrain.noise_magnitude,
        temperature=cfg.pretrain.tau,
    )


def warm_up(cfg: ExperimentConfig, split: SplitDataset) -> PretrainResult:
    """Seeded random init, then ``pretrain.epochs`` contrastive epochs."""
    table = init_table(
        split.n_users, split.n_items, cfg.model.dim, substream(cfg.train.seed, "init")
    )
    graph = assemble_pretraining_graph(split, privacy_settings(cfg), cfg.train.seed)
    result = pretrain(
        graph,
        table,
        cfg.pretrain.epochs,
        augmentation_settings(cfg, split.n_users),
        pretrain_eta(cfg),
        cfg.model.layers,
        substream(cfg.train.seed, "pretrain"),
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
    if cfg.privacy.enabled:
        ldp = privacy_settings(cfg).ldp
        for user, vec in enumerate(block):
            stream = substream(cfg.train.seed, label, round_idx, user)
            block[user] = randomize_vector(vec, ldp, stream)
    return block


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


def eval_model(
    cfg: ExperimentConfig,
    split: SplitDataset,
    user: int,
    user_row: np.ndarray,
    item_rows: np.ndarray,
) -> UserEvalModel:
    """One user's model for the ranking protocol.

    The evaluation-time local graph draws pseudo items from a fixed per-user
    stream (round-independent); candidates exclude the full training set plus
    those pseudo items. Item scores use the raw rows: every candidate is
    isolated in the local graph, so propagation would only rescale them
    uniformly.
    """
    graph_items, p = split.train_items(user), cfg.privacy.pseudo_items_p
    if p > 0:
        pseudo = sample_pseudo_items(
            split.n_items, graph_items, p, substream(cfg.train.seed, "eval-graph", user)
        )
        graph_items = np.union1d(graph_items, pseudo)
    user_emb = infer_user_embedding(user_row, item_rows, graph_items, cfg.model.layers)
    return UserEvalModel(user_emb, item_rows, graph_items)


def build_eval_models(
    split: SplitDataset,
    states: dict[int, ClientState],
    base: np.ndarray,
    cluster_items: np.ndarray,
    global_items: np.ndarray,
    weights: PersonalizationWeights,
    cfg: ExperimentConfig,
    users: Sequence[int],
) -> dict[int, UserEvalModel]:
    """The models of ``users``, members of one cluster, on their alpha-mixed
    item tables: a copy of ``base``, the cluster's mix over the warm-start
    table, with the user's overlay rows mixed the same way. Each model holds
    an M x d table, so callers ask for a few users at a time."""
    models = {}
    for user in users:
        state = states[user]
        ids = state.local_items
        rows = base.copy()
        rows[ids] = personalize(state.local_rows, cluster_items[ids], global_items[ids], weights)
        models[user] = eval_model(cfg, split, user, state.user_vec, rows)
    return models


def personalized_models(
    split: SplitDataset,
    states: dict[int, ClientState],
    cluster_items: dict[int, np.ndarray],
    assignment: ClusterAssignment,
    global_items: np.ndarray,
    local_base: np.ndarray,
    weights: PersonalizationWeights,
    cfg: ExperimentConfig,
) -> Iterator[tuple[int, UserEvalModel]]:
    """``(user, model)`` for every user on the alpha-mixed item table, cluster
    by cluster: only one cluster's base mix and one user's copy of it exist at
    once."""
    for c in range(assignment.k):  # k-means leaves no cluster empty
        base = personalize(local_base, cluster_items[c], global_items, weights)
        for user in np.flatnonzero(assignment.assignment == c).tolist():
            yield from build_eval_models(
                split, states, base, cluster_items[c], global_items, weights, cfg, (user,)
            ).items()


def eval_weights(cfg: ExperimentConfig) -> PersonalizationWeights:
    return PersonalizationWeights(*cfg.personalization.alpha)


def run_training(
    cfg: ExperimentConfig,
    split: SplitDataset,
    warm_table: EmbeddingTable | None = None,
    verbose: bool = False,
) -> TrainResult:
    """Full federated loop.

    Per round: (re)cluster on uploaded embeddings, select clients in
    proportion to cluster sizes, collect privacy-protected client updates,
    apply the weighted-average step to the global table and to each cluster
    table, and periodically evaluate the personalized models on validation
    data with early stopping on NDCG@20. The best-validation snapshot is
    restored at the end.
    """
    seed = cfg.train.seed
    n_users = split.n_users
    if warm_table is not None:
        if warm_table.n_users != n_users or warm_table.n_items != split.n_items:
            raise DataError("warm-start table shape does not match the dataset")
        if warm_table.dim != cfg.model.dim:
            raise ConfigError(
                f"model.dim is {cfg.model.dim} but the warm-start table has dim "
                f"{warm_table.dim}"
            )
        table = warm_table.copy()
    elif cfg.pretrain.epochs == 0:
        table = init_table(n_users, split.n_items, cfg.model.dim, substream(seed, "init"))
    else:
        table = warm_up(cfg, split).table
    states = init_client_states(table)
    global_items = table.items.copy()
    local_base = table.items.copy()

    k_clusters = min(cfg.cluster.k, n_users)
    budget = min(cfg.train.clients_per_round, n_users)
    weights = eval_weights(cfg)
    es_cutoff = 20 if 20 in cfg.eval.cutoffs else max(cfg.eval.cutoffs)

    neighbors, by_handle = (
        _neighbor_setup(cfg, split) if cfg.graph.neighbor_expansion else ((), None)
    )

    privacy = privacy_settings(cfg)
    assignment: ClusterAssignment | None = None
    cluster_items: dict[int, np.ndarray] = {}
    reports: list[RoundReport] = []
    best_snapshot = None
    best_ndcg = -np.inf
    best_round = 0
    evals_since_best = 0

    def make_assignment(round_idx: int) -> ClusterAssignment:
        X = _noised_uploads(states, cfg, "cluster-upload", round_idx)
        return cluster_users(X, k_clusters, substream(seed, "cluster", round_idx))

    for round_idx in range(1, cfg.train.max_rounds + 1):
        started = time.perf_counter()
        if (round_idx - 1) % cfg.cluster.recluster_every == 0:
            assignment = make_assignment(round_idx)
            # cluster tables restart from the current global table: cluster
            # identities do not persist across re-clusterings
            cluster_items = {c: global_items.copy() for c in range(k_clusters)}
        selected = select_clients(assignment, budget, substream(seed, "select", round_idx))
        # uploaded user embeddings in handle order, for one-hop expansion
        neighbor_vecs = (
            _noised_uploads(states, cfg, "neighbor-upload", round_idx)[by_handle]
            if cfg.graph.neighbor_expansion
            else None
        )

        ctx = ClientConfig(
            split=split,
            n_layers=cfg.model.layers,
            eta=cfg.train.eta,
            gamma=cfg.train.gamma,
            batch_size=cfg.train.batch_size,
            privacy=privacy,
            local_base=local_base,
            neighbors=neighbors,
            neighbor_vecs=neighbor_vecs,
        )

        # a blow-up here is named by the checks below, not by a warning
        with np.errstate(over="ignore", invalid="ignore"):
            updates = [
                client_update(
                    states[user], global_items, ctx, substream(seed, "client", round_idx, user)
                )
                for user in selected
            ]
            global_items = apply_update(global_items, aggregate(updates), cfg.train.eta)
            by_cluster: dict[int, list[GradientUpdate]] = defaultdict(list)
            for user, update in zip(selected, updates):
                by_cluster[int(assignment.assignment[user])].append(update)
            for c in sorted(by_cluster):
                cluster_items[c] = apply_update(
                    cluster_items[c], aggregate(by_cluster[c]), cfg.train.eta
                )
        tables = [global_items] + [cluster_items[c] for c in by_cluster]
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
            models = personalized_models(
                split,
                states,
                cluster_items,
                assignment,
                global_items,
                local_base,
                weights,
                cfg,
            )
            result = evaluate_cutoffs(split, models, (es_cutoff,))["validation"][
                es_cutoff
            ]
            val_recall, val_ndcg = result.recall, result.ndcg
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                best_round = round_idx
                evals_since_best = 0
                # arrays are never changed in place (apply_update returns a
                # copy, client_update rebinds), so references suffice
                best_snapshot = (
                    global_items,
                    dict(cluster_items),
                    assignment,
                    {u: replace(s) for u, s in states.items()},
                )
            else:
                evals_since_best += 1

        reports.append(
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

    if assignment is None:
        assignment = make_assignment(0)
        cluster_items = {c: global_items.copy() for c in range(k_clusters)}
    final_round = len(reports)
    if best_snapshot is not None:
        global_items, cluster_items, assignment, states = best_snapshot
        final_round = best_round

    user_table = np.vstack([states[u].user_vec for u in range(n_users)])
    return TrainResult(
        global_items=global_items,
        user_table=user_table,
        cluster_items=cluster_items,
        assignment=assignment,
        reports=reports,
        states=states,
        local_base=local_base,
        final_round=final_round,
    )
