"""Privacy stack: pseudo items, interaction masking, LDP randomization.

All sampling is driven by explicit generators so per-client streams keyed by
(round, client) reproduce identically under any scheduling.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable

import numpy as np

from .config import PrivacySection
from .gnn import GradientUpdate


def complement_ids(blocked: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The ids at positions ``pos`` of the sorted complement of the sorted,
    distinct ids ``blocked``, without building the complement: position k
    maps to k plus the number of blocked ids at or below the answer."""
    return pos + np.searchsorted(blocked - np.arange(len(blocked)), pos, side="right")


def sample_pseudo_items(
    catalog_size: int, true_items: np.ndarray, p: int, rng: np.random.Generator
) -> np.ndarray:
    """Up to ``p`` distinct items, sorted, drawn uniformly outside the sorted
    ``true_items``."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return true_items[:0]
    n_free = catalog_size - len(true_items)
    if n_free <= p:
        return np.setdiff1d(np.arange(catalog_size), true_items, assume_unique=True)
    return complement_ids(true_items, np.sort(rng.choice(n_free, size=p, replace=False)))


def mask_interacted_items(
    true_items: np.ndarray, mask_ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Hide floor(mask_ratio * n) of the sorted ``true_items``; returns
    (kept, masked), both sorted.

    Masked items behave as non-interacted during local training. When the
    count is zero no random draw is consumed.
    """
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in [0, 1)")
    count = math.floor(mask_ratio * len(true_items))
    if count == 0:
        return true_items, true_items[:0]
    masked = np.sort(rng.choice(true_items, size=count, replace=False))
    return np.setdiff1d(true_items, masked, assume_unique=True), masked


def laplace_noise(rng: np.random.Generator, scale: float, size) -> np.ndarray:
    """Laplace(0, scale) samples via the inverse CDF of a uniform draw."""
    return laplace_from_uniform(rng.random(size), scale)


def laplace_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
    u = u - 0.5
    inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
    return -scale * np.sign(u) * np.log(inner)


def randomize_vector(
    vec: np.ndarray, cfg: PrivacySection, rng: np.random.Generator | Iterable[np.random.Generator]
) -> np.ndarray:
    """Clip each entry to [-clip_delta, clip_delta] and add i.i.d.
    Laplace(0, laplace_lambda) noise: one draw of ``rng``, or, from one
    generator per row, each row's own draw, turned into noise at once."""
    if not (cfg.clip_delta > 0 and cfg.laplace_lambda >= 0):
        raise ValueError("need clip_delta > 0 and laplace_lambda >= 0")
    out = np.clip(vec, -cfg.clip_delta, cfg.clip_delta)
    if cfg.laplace_lambda > 0 and isinstance(rng, np.random.Generator):
        return out + laplace_noise(rng, cfg.laplace_lambda, out.shape)
    if cfg.laplace_lambda > 0:
        u = np.empty_like(out)
        for stream, row in zip(rng, u, strict=True):
            stream.random(out=row)
        out += laplace_from_uniform(u, cfg.laplace_lambda)
    return out


def ldp_randomize(
    update: GradientUpdate, cfg: PrivacySection, rng: np.random.Generator
) -> GradientUpdate:
    """Randomize every gradient entry; the data count passes through.

    The row block is randomized in one call, which draws the same noise as
    row-by-row calls in ascending id order. With ``enabled`` off the update
    is returned as-is.
    """
    if not cfg.enabled:
        return update
    return GradientUpdate(
        update.items, randomize_vector(update.item_grads, cfg, rng), update.data_count
    )


def privacy_budget(cfg: PrivacySection) -> float:
    """Per-upload budget bound 2*delta/lambda."""
    if cfg.laplace_lambda == 0:
        raise ValueError("no noise, unbounded budget")
    return 2.0 * cfg.clip_delta / cfg.laplace_lambda


def pseudo_item_gradients(
    pseudo_items: Collection[int], real_rows: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Decoy gradient rows for the distinct ``pseudo_items``, in ascending id
    order.

    Entries are zero-mean Gaussians whose standard deviation matches the
    pooled per-entry spread of the real item-gradient rows, so real and decoy
    rows look alike before the LDP stage. The block is one draw, equal to
    one draw per id in ascending id order.
    """
    real_rows = np.asarray(real_rows, dtype=np.float64)
    if not len(pseudo_items):
        return np.zeros((0, real_rows.shape[1]))
    if not len(real_rows):
        raise ValueError("need real item gradients to imitate")
    std = float(np.ravel(real_rows).std())
    return rng.normal(0.0, std, (len(pseudo_items), real_rows.shape[1]))
