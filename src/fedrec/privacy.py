"""Privacy stack: pseudo items, interaction masking, LDP randomization.

All sampling is driven by explicit generators so per-client streams keyed by
(round, client) reproduce identically under any scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .gnn import GradientUpdate


@dataclass(frozen=True)
class LdpConfig:
    """Elementwise clip bound and Laplace noise strength for uploads."""

    clip_threshold: float
    laplace_scale: float
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.clip_threshold <= 0:
            raise ValueError("clip_threshold must be > 0")
        if self.laplace_scale < 0:
            raise ValueError("laplace_scale must be >= 0")


@dataclass(frozen=True)
class PrivacyConfig:
    """Knobs for the client-side obfuscation pipeline."""

    mask_ratio: float = 0.0
    pseudo_items_p: int = 0
    ldp: LdpConfig = field(default_factory=lambda: LdpConfig(0.1, 0.2, enabled=False))

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must be in [0, 1)")
        if self.pseudo_items_p < 0:
            raise ValueError("pseudo_items_p must be >= 0")


def sample_pseudo_items(
    catalog_size: int, true_items: np.ndarray, p: int, rng: np.random.Generator
) -> np.ndarray:
    """Up to ``p`` distinct items, sorted, drawn uniformly outside the sorted
    ``true_items``."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return true_items[:0]
    pool = np.setdiff1d(np.arange(catalog_size), true_items, assume_unique=True)
    if len(pool) <= p:
        return pool
    return np.sort(rng.choice(pool, size=p, replace=False))


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
    u = rng.random(size) - 0.5
    inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
    return -scale * np.sign(u) * np.log(inner)


def randomize_vector(
    vec: np.ndarray, cfg: LdpConfig, rng: np.random.Generator
) -> np.ndarray:
    """Clip each entry to [-delta, delta] and add i.i.d. Laplace noise."""
    out = np.clip(vec, -cfg.clip_threshold, cfg.clip_threshold)
    if cfg.laplace_scale > 0:
        out = out + laplace_noise(rng, cfg.laplace_scale, out.shape)
    return out


def ldp_randomize(
    update: GradientUpdate, cfg: LdpConfig, rng: np.random.Generator
) -> GradientUpdate:
    """Randomize every gradient entry; the data count passes through.

    The row block is randomized in one call, which draws the same noise as
    row-by-row calls in ascending id order. A disabled config returns the
    update as-is.
    """
    if not cfg.enabled:
        return update
    return GradientUpdate(
        update.items, randomize_vector(update.item_grads, cfg, rng), update.data_count
    )


def privacy_budget(cfg: LdpConfig) -> float:
    """Per-upload budget bound 2*delta/lambda."""
    if cfg.laplace_scale == 0:
        raise ValueError("no noise, unbounded budget")
    return 2.0 * cfg.clip_threshold / cfg.laplace_scale


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
