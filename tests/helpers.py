"""Independent oracles shared by the test modules.

These deliberately avoid the library's propagation/gradient code paths: the
dense oracle builds the full normalized adjacency and takes matrix powers,
and the gradient oracle uses central finite differences on the loss alone.
"""

from __future__ import annotations

import numpy as np

from fedrec.data import SplitDataset
from fedrec.gnn import BipartiteGraph, EmbeddingTable


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
    edges = tuple(
        sorted((u, i) for u, items in split.train.items() for i in items)
    )
    return BipartiteGraph(split.n_users, split.n_items, edges)


def random_table(rng: np.random.Generator, n_users: int, n_items: int,
                 dim: int, scale: float = 1.0) -> EmbeddingTable:
    return EmbeddingTable(
        rng.normal(0.0, scale, (n_users, dim)),
        rng.normal(0.0, scale, (n_items, dim)),
    )

