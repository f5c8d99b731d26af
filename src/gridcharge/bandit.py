"""Combinatorial linear Thompson Sampling state carried by each EV agent.

Each agent learns two m-vectors over the daily decision instants, the
expected reward of charging at each instant and its own PV power, samples
each from its Gaussian posterior once per day, and plays the top-k instants
under the reward sample. Both learners observe each instant on its own
(one-hot per-instant features), so both posteriors have a diagonal
precision, kept as an m-vector: the CombLinTS update (Wen, Kveton & Ashkan,
ICML 2015). Each coordinate's mean is the average of its observations and
its prior pseudo-observation, so it converges to the instant's true mean.
Every update and draw is elementwise, so a strategy holds each learner of
its whole fleet as one state with one row per EV: the rows share nothing.

The reward learner's prior mean is REWARD_PRIOR_MEAN = 0.5, the midpoint of
the reward range [0, 1] of an instant without requests (1 - normalized
cost); it is fixed a priori, not fitted. The PV learner's prior mean is 0.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "REWARD_PRIOR_MEAN",
    "BanditState",
    "sample_parameter",
    "select_super_arm",
    "update_day",
    "update_pv",
]

REWARD_PRIOR_MEAN = 0.5


class BanditState:
    """Diagonal Gaussian posterior over one m-vector, mean = response /
    precision; used by both the reward and the PV learner.

    The arrays may hold one row per EV, `(n, m)`: a strategy keeps each
    learner of its whole fleet as one such state, and every operation
    below acts elementwise, so the rows never mix.
    """
    __slots__ = ("precision", "response", "scale")

    def __init__(self, precision: np.ndarray, response: np.ndarray,
                 scale: float):
        self.precision = precision  # (..., m), precision diagonal, >= 1
        self.response = response    # (..., m)
        # The exploration scale on the posterior covariance: an array that
        # broadcasts, when the state is stacked.
        self.scale = scale

    @property
    def estimate(self) -> np.ndarray:
        return self.response / self.precision

    @classmethod
    def initial(cls, m: int, scale: float, mean: float,
                n: int | None = None) -> "BanditState":
        """Prior: one pseudo-observation of `mean` at every instant; `n`
        rows of it when `n` is given."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if scale < 0.0:
            raise ValueError("exploration scale must be >= 0")
        shape = (m,) if n is None else (n, m)
        return cls(np.ones(shape), np.full(shape, float(mean)), float(scale))


def sample_parameter(state: BanditState,
                     rng: np.random.Generator) -> np.ndarray:
    """One draw from the posterior N(estimate, scale^2 diag(precision)^-1).

    Draws standard normals and scales them by the inverse square root of
    the precision. Scale 0 returns the mean exactly and draws nothing.

    A state may stack learners: `scale` then broadcasts against the
    arrays, one scale per learner, and the normals are one block in C
    order over the entries whose scale is not 0 (drawn in the arrays'
    shape when no scale is 0). A `(rows, learners, m)` stack with scales
    of shape `(learners, 1)` thus draws exactly what one call per row and
    learner, in that order, would draw.
    """
    sample = state.estimate   # a new array
    if (np.asarray(state.scale) != 0.0).all():
        z = rng.standard_normal(sample.shape)
        sample += state.scale * (z / np.sqrt(state.precision))
        return sample
    scale = np.broadcast_to(state.scale, sample.shape)
    live = scale != 0.0
    if live.any():
        z = rng.standard_normal(np.count_nonzero(live))
        sample[live] += scale[live] * (z / np.sqrt(state.precision[live]))
    return sample


def select_super_arm(theta_sample: np.ndarray, candidates, k: int) -> tuple:
    """Top-k candidate instants under the sampled parameter, as a sorted
    tuple.

    Linear super-arm value means the greedy top-k is exactly optimal over
    all size-k subsets. Ties break toward the lowest instant index.
    """
    cand = sorted(set(int(c) for c in candidates))
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(cand):
        raise ValueError(f"k={k} exceeds {len(cand)} candidates")
    ordered = sorted(cand, key=lambda c: (-theta_sample[c], c))
    return tuple(sorted(ordered[:k]))


def _checked(state, mask, values, rows):
    mask = np.asarray(mask, dtype=float)
    values = np.asarray(values, dtype=float)
    # The shape of `state.response[rows]`, read from a zero-width view so
    # that no row is copied.
    response = state.response
    picked = response[..., :0][rows].shape[:-1] + response.shape[-1:]
    if mask.shape != picked or values.shape != mask.shape:
        raise ValueError("mask/values dimension mismatch with state")
    if np.any((mask == 0.0) & (values != 0.0)):
        raise ValueError("values must be zero at instants outside the mask")
    return mask, values


def update_day(state: BanditState, mask, values, rows=...) -> BanditState:
    """End-of-day update from the instants observed that day, in place.

    Each observed instant adds one to its precision and its value (reward
    or PV reading) to its response, so the estimate follows. `rows`
    selects the rows of a fleet's learner that `mask` and `values`, one
    row each, update; by default they cover the whole state. Returns the
    state.
    """
    mask, values = _checked(state, mask, values, rows)
    state.precision[rows] += mask
    state.response[rows] += values
    return state


# One rule for both learners; the strategy calls it under both names, and
# perfbench/child.py wraps each name.
update_pv = update_day
