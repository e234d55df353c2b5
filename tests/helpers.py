"""Independent oracles shared by the test modules.

These deliberately avoid the library's propagation/gradient code paths: the
dense oracle builds the full normalized adjacency and takes matrix powers,
and the gradient oracle uses central finite differences on the loss alone.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from fedrec.data import InteractionDataset, SplitDataset, _first_appearance_ids
from fedrec.errors import DataError, read_text
from fedrec.gnn import BipartiteGraph, EmbeddingTable, bpr_loss, propagate
from fedrec.privacy import randomize_vector, sample_pseudo_items
from fedrec.rng import substream
from fedrec.server import _kmeans_pp


def local_item_table(state, base: np.ndarray) -> np.ndarray:
    """A client's fine-tuned item table: warm-start rows plus its own
    accumulated raw-gradient steps on the rows it has touched."""
    rows = base.copy()
    rows[state.local_items] = state.local_rows
    return rows


def dense_step_matrix(n_users: int, n_items: int, edges) -> np.ndarray:
    """Symmetrically normalized adjacency on the stacked user+item space."""
    n = n_users + n_items
    adj = np.zeros((n, n))
    deg_u = np.zeros(n_users)
    deg_i = np.zeros(n_items)
    for u, i in edges:
        deg_u[u] += 1
        deg_i[i] += 1
    for u, i in edges:
        w = 1.0 / np.sqrt(deg_u[u] * deg_i[i])
        adj[u, n_users + i] = w
        adj[n_users + i, u] = w
    return adj


def dense_readout(
    n_users: int, n_items: int, edges, n_layers: int, table: EmbeddingTable
) -> EmbeddingTable:
    """Mean of S^l X for l = 0..L computed with explicit matrix powers."""
    step = dense_step_matrix(n_users, n_items, edges)
    stacked = np.vstack([table.users, table.items])
    total = np.zeros_like(stacked)
    power = np.eye(len(stacked))
    for _ in range(n_layers + 1):
        total += power @ stacked
        power = step @ power
    mean = total / (n_layers + 1)
    return EmbeddingTable(mean[:n_users], mean[n_users:])


def finite_difference(fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    grad = np.zeros_like(x)
    for idx in range(len(x)):
        bumped = x.copy()
        bumped[idx] += h
        up = fn(bumped)
        bumped[idx] -= 2 * h
        down = fn(bumped)
        grad[idx] = (up - down) / (2 * h)
    return grad


def table_loss_gradient(loss_of_table, table: EmbeddingTable, h: float = 1e-4):
    """Finite-difference gradient w.r.t. both blocks of an embedding table."""
    n_users, dim = table.users.shape

    def unflatten(vec: np.ndarray) -> EmbeddingTable:
        users = vec[: n_users * dim].reshape(n_users, dim)
        items = vec[n_users * dim :].reshape(-1, dim)
        return EmbeddingTable(users, items)

    flat = np.concatenate([table.users.ravel(), table.items.ravel()])
    grad = finite_difference(lambda v: loss_of_table(unflatten(v)), flat, h)
    return unflatten(grad)


def max_rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Worst-case |a - r| / max(1, |r|) over all entries."""
    denom = np.maximum(1.0, np.abs(reference))
    return float(np.max(np.abs(analytic - reference) / denom))


def random_bipartite(rng: np.random.Generator, n_users: int, n_items: int,
                     edge_prob: float = 0.5) -> BipartiteGraph:
    edges = tuple(
        (u, i)
        for u in range(n_users)
        for i in range(n_items)
        if rng.random() < edge_prob
    )
    return BipartiteGraph(n_users, n_items, edges)


def training_graph(split: SplitDataset) -> BipartiteGraph:
    """Global bipartite graph over the raw training interactions."""
    edges = [
        (u, i) for u in range(split.n_users) for i in split.train_items(u).tolist()
    ]
    return BipartiteGraph(split.n_users, split.n_items, edges)


def random_table(rng: np.random.Generator, n_users: int, n_items: int,
                 dim: int, scale: float = 1.0) -> EmbeddingTable:
    return EmbeddingTable(
        rng.normal(0.0, scale, (n_users, dim)),
        rng.normal(0.0, scale, (n_items, dim)),
    )


def loop_absent_edges(
    graph: BipartiteGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Reference draw of ``count`` distinct non-edges as sorted (user, item)
    rows, one pair at a time: a user then an item, redrawn while it hits an
    edge or an earlier draw. Asking for every non-edge returns them all."""
    n_items = graph.n_items
    existing = graph.edges[:, 0] * n_items + graph.edges[:, 1]
    seen = set(existing.tolist())
    available = graph.n_users * n_items - len(seen)
    if count >= available:
        ids = np.setdiff1d(np.arange(graph.n_users * n_items, dtype=np.int64), existing)
    else:
        added: set[int] = set()
        while len(added) < count:
            lid = int(rng.integers(graph.n_users)) * n_items + int(rng.integers(n_items))
            if lid not in seen:
                added.add(lid)
        ids = np.array(sorted(added), dtype=np.int64)
    return np.stack(np.divmod(ids, n_items), axis=1)


def scipy_entity_infonce(a: np.ndarray, b: np.ndarray, tau: float):
    """Reference InfoNCE kernel on scipy's ``logsumexp`` and ``softmax``: the
    per-entity terms and the gradients w.r.t. ``a`` and ``b``, zero-norm rows
    taken as similarity 0 with a zero gradient."""
    from scipy.special import logsumexp, softmax

    def normalized(x):
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms == 0, 1.0, norms)
        return x / safe[:, None], norms == 0, safe

    a_hat, zero_a, na = normalized(a)
    b_hat, zero_b, nb = normalized(b)
    sims = a_hat @ b_hat.T
    logits = sims / tau
    terms = logsumexp(logits, axis=1) - np.diag(sims) / tau
    w = softmax(logits, axis=1)
    w[np.diag_indices_from(w)] -= 1.0
    w /= tau
    ws = w * sims
    grad_a = (w @ b_hat - ws.sum(axis=1)[:, None] * a_hat) / na[:, None]
    grad_b = (w.T @ a_hat - ws.sum(axis=0)[:, None] * b_hat) / nb[:, None]
    grad_a[zero_a] = 0.0
    grad_b[zero_b] = 0.0
    return terms, grad_a, grad_b


def loop_load_interactions(path) -> InteractionDataset:
    """Reference interaction loader: every line parsed on its own with
    ``int``, then densified and deduplicated like the library."""
    rows: list[tuple[int, ...]] = []
    for lineno, rawline in enumerate(read_text(path).split("\n"), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected `user<TAB>item<TAB>timestamp`")
        try:
            row = tuple(map(int, parts))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer field") from exc
        if min(row) < 0 or max(row) >= 2**63:
            raise DataError(f"{path}:{lineno}: value out of range [0, 2**63)")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    raw = np.array(rows, dtype=np.int64)
    users, n_users = _first_appearance_ids(raw[:, 0])
    items, n_items = _first_appearance_ids(raw[:, 1])
    pair, n_pairs = _first_appearance_ids(users * n_items + items)
    dedup = np.full((n_pairs, 3), np.iinfo(np.int64).max)
    dedup[pair, 0], dedup[pair, 1] = users, items
    np.minimum.at(dedup[:, 2], pair, raw[:, 2])
    return InteractionDataset(n_users, n_items, dedup)


def loop_load_checkpoint(path) -> tuple[EmbeddingTable, dict[str, str]]:
    """Reference checkpoint loader: every row parsed on its own with
    ``float``, behind the same header and row-count checks."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty checkpoint")
    head = lines[0].split()
    if len(head) < 3:
        raise DataError(f"{path}: header must be `dim N M [flags]`")
    try:
        dim, n_users, n_items = (int(x) for x in head[:3])
    except ValueError as exc:
        raise DataError(f"{path}: bad header {lines[0]!r}") from exc
    if dim < 1 or n_users < 0 or n_items < 0:
        raise DataError(f"{path}: header needs dim >= 1 and N, M >= 0, got {lines[0]!r}")
    flags = {}
    for token in head[3:]:
        key, _, value = token.partition("=")
        flags[key] = value
    rows = lines[1:]
    if len(rows) != n_users + n_items:
        raise DataError(
            f"{path}: expected {n_users + n_items} rows, found {len(rows)}"
        )
    if not rows:
        return EmbeddingTable(np.empty((0, dim)), np.empty((0, dim))), flags
    try:
        data = np.array([[float(v) for v in row.split()] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: malformed float row") from exc
    if data.shape != (n_users + n_items, dim):
        raise DataError(f"{path}: row width does not match dim {dim}")
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite embedding value")
    return EmbeddingTable(data[:n_users], data[n_users:]), flags


def loop_cluster_users(X: np.ndarray, k: int, rng: np.random.Generator):
    """Reference k-means: the same seeding, revival and stopping rule as
    ``cluster_users``, with every distance summed exactly, one centre at a
    time. Returns ``(assignment, centroids, inertia_path)``."""
    n = X.shape[0]
    centers = _kmeans_pp(X, k, rng)
    assign = np.full(n, -1, dtype=np.int64)
    inertia_path: list[float] = []
    for _ in range(100):
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
    return assign, centers, tuple(inertia_path)


def loop_noised_uploads(
    block: np.ndarray, cfg, label: str, round_idx: int
) -> np.ndarray:
    """Reference upload noise: ``randomize_vector`` row by row, each user
    on its own ``substream(seed, label, round, user)``, one key at a time.
    ``cfg`` is the whole ``ExperimentConfig``."""
    block = block.copy()
    if cfg.privacy.enabled:
        for user, vec in enumerate(block):
            stream = substream(cfg.train.seed, label, round_idx, user)
            block[user] = randomize_vector(vec, cfg.privacy, stream)
    return block


def loop_eval_graph(cfg, split: SplitDataset, user: int) -> np.ndarray:
    """Reference evaluation graph items of one user: the training items plus
    pseudo items on ``substream(seed, "eval-graph", user)``."""
    items, p = split.train_items(user), cfg.privacy.pseudo_items_p
    if p == 0:
        return items
    pseudo = sample_pseudo_items(
        split.n_items, items, p, substream(cfg.train.seed, "eval-graph", user)
    )
    return np.union1d(items, pseudo)


def add_at_rows(index, rows: np.ndarray, n: int) -> np.ndarray:
    """``np.add.at`` into zeros: the reference for ``gnn.scatter_rows``."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, np.asarray(index, dtype=np.int64), rows)
    return out


def add_at_bpr_gradients(op, raw: EmbeddingTable, triples: np.ndarray, gamma: float):
    """``gnn.bpr_gradients`` as three ``np.add.at`` calls and a separate
    ``bpr_loss`` pass: the reference for the one-scatter version. Unlike the
    oracles above, it reuses the library's ``propagate`` and ``bpr_loss``; it
    checks the scatter order, not the propagation."""
    final = propagate(op, raw)
    loss = bpr_loss(final, triples, gamma, raw)
    u, p, j = triples.T
    diff = final.items[p] - final.items[j]
    coef = -expit(-np.einsum("nd,nd->n", final.users[u], diff)) / len(triples)
    g_users = np.zeros_like(final.users)
    g_items = np.zeros_like(final.items)
    np.add.at(g_users, u, coef[:, None] * diff)
    np.add.at(g_items, p, coef[:, None] * final.users[u])
    np.add.at(g_items, j, -coef[:, None] * final.users[u])
    back = propagate(op, EmbeddingTable(g_users, g_items))
    if gamma:
        users, items = np.unique(u), np.unique(triples[:, 1:])
        back.users[users] += 2.0 * gamma * raw.users[users]
        back.items[items] += 2.0 * gamma * raw.items[items]
    return loss, final, back
