"""Embedding tables, normalized bipartite propagation, BPR math, checkpoints.

The model state is nothing but the user/item embedding tables. A layer is a
linear map over the symmetrically normalized interaction graph, and
:func:`propagate` returns the readout, the mean over layers 0..L;
predictions are inner products. Because one propagation step is
self-adjoint on the stacked user+item space, so is the readout map, and the
exact loss gradient with respect to the raw tables is obtained by
propagating the gradient of the final tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import DataError, read_text


@dataclass(eq=False)
class EmbeddingTable:
    """Dense user and item embedding rows sharing one dimension."""

    users: np.ndarray
    items: np.ndarray

    def __post_init__(self) -> None:
        self.users = np.ascontiguousarray(np.asarray(self.users, dtype=np.float64))
        self.items = np.ascontiguousarray(np.asarray(self.items, dtype=np.float64))
        if self.users.ndim != 2 or self.items.ndim != 2:
            raise ValueError("embedding tables must be two-dimensional")
        if self.users.shape[1] != self.items.shape[1]:
            raise ValueError(
                f"user dim {self.users.shape[1]} != item dim {self.items.shape[1]}"
            )

    @property
    def dim(self) -> int:
        return self.users.shape[1]

    @property
    def n_users(self) -> int:
        return self.users.shape[0]

    @property
    def n_items(self) -> int:
        return self.items.shape[0]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.users.copy(), self.items.copy())

    def allfinite(self) -> bool:
        return bool(np.isfinite(self.users).all() and np.isfinite(self.items).all())


def init_table(
    n_users: int, n_items: int, dim: int, rng: np.random.Generator, scale: float = 0.1
) -> EmbeddingTable:
    """Gaussian-initialized table (std ``scale``), users drawn before items."""
    return EmbeddingTable(
        rng.normal(0.0, scale, (n_users, dim)),
        rng.normal(0.0, scale, (n_items, dim)),
    )


def _edge_array(edges) -> np.ndarray:
    """``(E, 2)`` int64 array of (user, item) rows from an array or pairs."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """A user-item interaction graph. ``edges`` is an ``(E, 2)`` int64 array
    of (user, item) rows; any sequence of pairs is converted on construction."""

    n_users: int
    n_items: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _edge_array(self.edges))


@dataclass(eq=False)
class PropagationOperator:
    """L-layer propagation over a bipartite graph.

    One step maps each user row to the sum of its incident item rows weighted
    by 1/sqrt(deg_u * deg_i), and symmetrically for items; no transform, no
    nonlinearity, no self loop. Nodes without edges propagate to zero.
    ``edges`` is converted to an ``(E, 2)`` int64 array like
    :class:`BipartiteGraph`'s; an endpoint out of range or a repeated
    (user, item) row raises ``ValueError``.
    """

    n_users: int
    n_items: int
    edges: np.ndarray
    n_layers: int
    degree_u: np.ndarray = field(init=False, repr=False)
    degree_i: np.ndarray = field(init=False, repr=False)
    _adj: np.ndarray | sparse.csr_matrix = field(init=False, repr=False)

    # below this many cells the dense adjacency beats csr construction cost,
    # which matters because every client update builds a tiny operator
    _DENSE_CELLS = 1 << 14

    def __post_init__(self) -> None:
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        self.edges = _edge_array(self.edges)
        us, its = self.edges[:, 0], self.edges[:, 1]
        if len(us) and (
            self.edges.min() < 0 or us.max() >= self.n_users or its.max() >= self.n_items
        ):
            raise ValueError("edge endpoint out of range")
        ids = np.sort(us * self.n_items + its)  # one linear id per (user, item)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate edges")
        self.degree_u = np.bincount(us, minlength=self.n_users).astype(np.int64)
        self.degree_i = np.bincount(its, minlength=self.n_items).astype(np.int64)
        weights = 1.0 / np.sqrt(self.degree_u[us] * self.degree_i[its])
        if self.n_users * self.n_items <= self._DENSE_CELLS:
            adj = np.zeros((self.n_users, self.n_items))
            adj[us, its] = weights
            self._adj = adj
        else:
            self._adj = sparse.csr_matrix(
                (weights, (us, its)), shape=(self.n_users, self.n_items)
            )


def propagate(op: PropagationOperator, table: EmbeddingTable) -> EmbeddingTable:
    """Readout of the propagation: the elementwise mean of layers 0..L, where
    layer 0 is the input table and each layer is one step of ``op`` applied
    to the one before. Layers are summed in order and divided once, the same
    arithmetic as ``np.mean`` over the stacked layers."""
    if table.n_users != op.n_users or table.n_items != op.n_items:
        raise ValueError("table shape does not match the operator")
    total = table.copy()
    users, items = table.users, table.items
    for _ in range(op.n_layers):
        users, items = op._adj @ items, op._adj.T @ users
        total.users += users
        total.items += items
    total.users /= op.n_layers + 1
    total.items /= op.n_layers + 1
    return total


def _triple_array(
    triples: np.ndarray | Sequence[tuple[int, int, int]],
) -> np.ndarray:
    """``(B, 3)`` int64 array of (user, pos, neg) rows from an array or triples.

    Anything that is not a ``(B, 3)`` batch (an empty sequence aside) raises
    ``ValueError`` rather than being re-read as different triples.
    """
    t = np.asarray(triples, dtype=np.int64)
    if t.size == 0:
        return t.reshape(0, 3)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"triples must be a (B, 3) batch, got shape {t.shape}")
    return t


@dataclass(eq=False)
class GradientUpdate:
    """One upload: item-gradient rows plus the owning client's data count.

    ``items`` holds sorted, distinct int64 item ids and ``item_grads`` their
    ``(len(items), d)`` rows; anything else raises ``ValueError``, because a
    repeated id would lose all but one of its rows in :func:`apply_update`.
    """

    items: np.ndarray
    item_grads: np.ndarray
    data_count: int

    def __post_init__(self) -> None:
        self.items = np.asarray(self.items, dtype=np.int64)
        self.item_grads = np.asarray(self.item_grads, dtype=np.float64)
        if self.items.ndim != 1 or (np.diff(self.items) <= 0).any():
            raise ValueError("items must be strictly increasing 1-D ids")
        if self.item_grads.ndim != 2 or len(self.item_grads) != len(self.items):
            raise ValueError("item_grads must hold one row per item")

    @property
    def user_grads(self) -> np.ndarray:
        """An empty ``(0, d)`` block: no upload carries a user row. Kept
        read-only because ``bench/tracer.py`` counts ``len(user_grads)``."""
        return self.item_grads[:0]


def scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``(n, d)`` block whose row ``i`` sums the ``rows`` at ``index == i``,
    each cell added in input order starting from 0.0, by one ``np.bincount``
    over the flat cell ids ``index * d + column``."""
    d = rows.shape[1]
    cells = (np.asarray(index, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, rows.ravel(), minlength=n * d).reshape(n, d)


def _margin_loss(m: np.ndarray, t: np.ndarray, gamma: float, raw: EmbeddingTable) -> float:
    """:func:`bpr_loss` from the batch's margins ``m``."""
    loss = float(np.mean(np.logaddexp(0.0, -m)))
    if gamma:
        users, items = np.unique(t[:, 0]), np.unique(t[:, 1:])
        loss += gamma * float(np.sum(raw.users[users] ** 2) + np.sum(raw.items[items] ** 2))
    return loss


def bpr_loss(
    final: EmbeddingTable,
    triples: np.ndarray | Sequence[tuple[int, int, int]],
    gamma: float,
    raw: EmbeddingTable,
) -> float:
    """Mean of -ln sigmoid(pos - neg) over the batch, plus the L2 penalty.

    ``triples`` is a ``(B, 3)`` array of (user, pos, neg) rows, or anything
    that converts to one. The penalty is gamma times the summed squared norms
    of the raw rows the batch touches (each distinct row counted once).
    """
    t = _triple_array(triples)
    if not len(t):
        raise ValueError("empty triple batch")
    u, p, j = t.T
    m = np.einsum("nd,nd->n", final.users[u], final.items[p] - final.items[j])
    return _margin_loss(m, t, gamma, raw)


def bpr_gradients(
    op: PropagationOperator,
    raw: EmbeddingTable,
    triples: np.ndarray | Sequence[tuple[int, int, int]],
    gamma: float,
) -> tuple[float, EmbeddingTable, EmbeddingTable]:
    """``(loss, final, grads)``: the :func:`bpr_loss` of the batch, the
    readout ``final = propagate(op, raw)`` it is computed on, and the exact
    gradient of the loss with respect to the raw table, as a dense table of
    the raw table's shape.

    One forward and one backward propagation: the batch gradient on the final
    tables is pushed back by reapplying the (self-adjoint) readout map to it;
    the L2 term acts on the raw rows the batch touches directly. The margins
    are computed once, for the loss and the gradient.
    """
    t = _triple_array(triples)
    if not len(t):
        raise ValueError("empty triple batch")
    final = propagate(op, raw)
    u, p, j = t.T
    diff = final.items[p] - final.items[j]
    m = np.einsum("nd,nd->n", final.users[u], diff)
    loss = _margin_loss(m, t, gamma, raw)
    coef = -expit(-m)[:, None] / len(t)

    g_users = scatter_rows(u, coef * diff, op.n_users)
    pulled = coef * final.users[u]  # the positive rows, then the negated ones
    g_items = scatter_rows(np.concatenate((p, j)), np.concatenate((pulled, -pulled)), op.n_items)

    back = propagate(op, EmbeddingTable(g_users, g_items))
    if gamma:
        users, items = np.unique(u), np.unique(t[:, 1:])
        back.users[users] += 2.0 * gamma * raw.users[users]
        back.items[items] += 2.0 * gamma * raw.items[items]
    return loss, final, back


def save_checkpoint(table: EmbeddingTable, path, pretrained: bool = False) -> None:
    """Write the text checkpoint: `dim N M [pretrained=true]`, then one row
    of space-separated floats per line, user rows first."""
    header = f"{table.dim} {table.n_users} {table.n_items}"
    if pretrained:
        header += " pretrained=true"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in (table.users, table.items):
            fh.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in block)


def load_checkpoint(path) -> tuple[EmbeddingTable, dict[str, str]]:
    """Read a checkpoint; returns the table and any header flags."""
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
    flags = dict(token.partition("=")[::2] for token in head[3:])
    rows = lines[1:]
    if len(rows) != n_users + n_items:
        raise DataError(f"{path}: expected {n_users + n_items} rows, found {len(rows)}")
    if not rows:
        return EmbeddingTable(np.empty((0, dim)), np.empty((0, dim))), flags
    plain = all(map(re.compile(r" *[-+.0-9eE][-+.0-9eE ]*").fullmatch, rows))
    try:  # rows of plain floats parse in one call, any other text row by row
        data = np.loadtxt(rows, comments=None, ndmin=2) if plain else _read_rows(path, rows)
    except ValueError:
        data = _read_rows(path, rows)
    if data.shape != (n_users + n_items, dim):
        raise DataError(f"{path}: row width does not match dim {dim}")
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite embedding value")
    return EmbeddingTable(data[:n_users], data[n_users:]), flags


def _read_rows(path, rows: list[str]) -> np.ndarray:
    """The per-row reader: every accepted form, and every named error."""
    try:
        return np.array([[float(v) for v in row.split()] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: malformed float row") from exc
