"""Combinatorial linear Thompson Sampling state carried by each EV agent.

Each agent learns two m-vectors over the daily decision instants, samples
each from its Gaussian posterior once per day, and plays the top-k instants
under the reward sample. The reward learner keeps a ridge-regression system
(Gram matrix, response vector); the PV learner observes each instant on its
own, so its posterior precision is diagonal and is kept as an m-vector (the
CombLinTS update for one-hot per-instant features).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BanditState",
    "PvLearnerState",
    "SuperArm",
    "sample_parameter",
    "select_super_arm",
    "update_day",
    "update_pv",
    "pseudo_regret",
]


def _check_prior(m: int, scale: float):
    if m < 1:
        raise ValueError("m must be >= 1")
    if scale < 0.0:
        raise ValueError("exploration scale must be >= 0")


@dataclass
class BanditState:
    """Reward learner: Gaussian posterior over the per-instant expected
    charging reward, mean = gram^-1 response."""
    gram: np.ndarray       # m x m, symmetric positive definite
    response: np.ndarray   # m
    estimate: np.ndarray   # m, always gram^-1 response
    scale: float           # exploration scale on the posterior covariance

    @classmethod
    def initial(cls, m: int, scale: float) -> "BanditState":
        _check_prior(m, scale)
        return cls.from_stats(np.eye(m), np.zeros(m), float(scale))

    @classmethod
    def from_stats(cls, gram, response, scale) -> "BanditState":
        return cls(gram=gram, response=response,
                   estimate=np.linalg.solve(gram, response), scale=scale)


@dataclass
class PvLearnerState:
    """PV learner: diagonal Gaussian posterior over the per-instant PV
    power in watt, mean = response / precision."""
    precision: np.ndarray  # m, diagonal of the posterior precision, >= 1
    response: np.ndarray   # m
    estimate: np.ndarray   # m, always response / precision
    scale: float           # exploration scale on the posterior covariance

    @classmethod
    def initial(cls, m: int, scale: float) -> "PvLearnerState":
        _check_prior(m, scale)
        return cls.from_stats(np.ones(m), np.zeros(m), float(scale))

    @classmethod
    def from_stats(cls, precision, response, scale) -> "PvLearnerState":
        return cls(precision=precision, response=response,
                   estimate=response / precision, scale=scale)


@dataclass(frozen=True)
class SuperArm:
    """A set of decision instants played together on one day."""
    instants: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "instants", tuple(sorted(set(self.instants))))

    def __contains__(self, instant: int) -> bool:
        return instant in set(self.instants)

    def __len__(self) -> int:
        return len(self.instants)

    def mask(self, m: int) -> np.ndarray:
        if self.instants and not (0 <= min(self.instants) <= max(self.instants) < m):
            raise ValueError("super-arm instants out of range")
        out = np.zeros(m)
        out[list(self.instants)] = 1.0
        return out

    def value(self, theta: np.ndarray) -> float:
        return float(sum(theta[i] for i in self.instants))


def sample_parameter(state, rng: np.random.Generator) -> np.ndarray:
    """One draw from the posterior N(estimate, scale^2 precision^-1).

    Draws one standard normal m-vector. The PV learner scales it by the
    inverse square root of its diagonal precision; the reward learner maps
    it through the Cholesky factor of its Gram matrix, which exists by the
    SPD invariant. Scale 0 returns the mean exactly and draws nothing.
    """
    if state.scale == 0.0:
        return state.estimate.copy()
    z = rng.standard_normal(state.estimate.shape)
    if isinstance(state, PvLearnerState):
        # z / sqrt(d) first: it rounds as the dense Cholesky solve does.
        return state.estimate + state.scale * (z / np.sqrt(state.precision))
    chol = np.linalg.cholesky(state.gram)
    return state.estimate + state.scale * np.linalg.solve(chol.T, z)


def select_super_arm(theta_sample: np.ndarray, candidates, k: int) -> SuperArm:
    """Top-k candidate instants under the sampled parameter.

    Linear super-arm value means the greedy top-k is exactly optimal over
    all size-k subsets. Ties break toward the lowest instant index.
    """
    cand = sorted(set(int(c) for c in candidates))
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(cand):
        raise ValueError(f"k={k} exceeds {len(cand)} candidates")
    ordered = sorted(cand, key=lambda c: (-theta_sample[c], c))
    return SuperArm(tuple(ordered[:k]))


def _checked(state, mask, values):
    mask = np.asarray(mask, dtype=float)
    values = np.asarray(values, dtype=float)
    if mask.shape != state.response.shape or values.shape != mask.shape:
        raise ValueError("mask/values dimension mismatch with state")
    if np.any((mask == 0.0) & (values != 0.0)):
        raise ValueError("values must be zero at instants outside the mask")
    return mask, values


def update_day(state: BanditState, played_mask, rewards) -> BanditState:
    """End-of-day reward update.

    Adds the day-mask outer product to the Gram matrix and the per-instant
    rewards to the response; the estimate is re-solved, never stale.
    """
    mask, rewards = _checked(state, played_mask, rewards)
    return BanditState.from_stats(state.gram + np.outer(mask, mask),
                                  state.response + rewards, state.scale)


def update_pv(state: PvLearnerState, observed_mask,
              observations) -> PvLearnerState:
    """End-of-day PV update from the instants with a sensor reading.

    Each observed instant adds one to its precision and its reading to its
    response, so each coordinate converges to its running mean.
    """
    mask, observations = _checked(state, observed_mask, observations)
    return PvLearnerState.from_stats(state.precision + mask,
                                     state.response + observations,
                                     state.scale)


def pseudo_regret(true_theta: np.ndarray, daily_selections, k) -> dict:
    """Cumulative regret traces over a run of daily selections.

    `daily_selections` is a sequence of (SuperArm, theta_hat_d) pairs; `k`
    is the optimal super-arm size, an int or one value per day. Returns
    cumulative traces under two scorings of the played arm:
      "estimated": optimal true value minus the day's estimated played value
      "true":      optimal true value minus the true played value
    The "true" trace is non-decreasing by optimality of the best arm.
    """
    true_theta = np.asarray(true_theta, dtype=float)
    n = len(daily_selections)
    ks = [int(k)] * n if np.isscalar(k) else [int(x) for x in k]
    if len(ks) != n:
        raise ValueError("one k per day required")
    est = np.zeros(n)
    tru = np.zeros(n)
    for d, ((arm, theta_hat_d), kd) in enumerate(zip(daily_selections, ks)):
        best = select_super_arm(true_theta, range(true_theta.shape[0]), kd)
        opt = best.value(true_theta)
        est[d] = opt - arm.value(np.asarray(theta_hat_d, dtype=float))
        tru[d] = opt - arm.value(true_theta)
    return {"estimated": np.cumsum(est), "true": np.cumsum(tru)}
