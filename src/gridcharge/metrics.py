"""Evaluation quantities: per-unit cost, fairness, reward traces."""
from __future__ import annotations

import numpy as np

__all__ = [
    "fairness_index",
    "mean_daily_reward",
    "per_unit_costs",
    "convergence_day",
]


def fairness_index(per_unit: "list[float] | np.ndarray") -> float:
    """1 / (1 + (sigma/mean)^2) over per-unit charging costs.

    Population standard deviation; an all-zero cost set has no dispersion
    and is defined as perfectly fair.
    """
    arr = np.asarray(per_unit, dtype=float)
    if arr.size == 0:
        raise ValueError("fairness index needs a non-empty cost set")
    if (arr < 0).any():
        raise ValueError("per-unit costs must be >= 0")
    mean = float(arr.mean())
    if mean == 0.0:
        return 1.0
    sigma = float(arr.std())
    return 1.0 / (1.0 + (sigma / mean) ** 2)


def per_unit_costs(cost: np.ndarray, grid_energy: np.ndarray,
                   day_slice=slice(None)) -> np.ndarray:
    """Per-EV cost per kWh of grid-charged energy over a day range.

    EVs that charged nothing from the grid in the range are excluded.
    """
    c = np.asarray(cost)[day_slice].sum(axis=0)
    e = np.asarray(grid_energy)[day_slice].sum(axis=0)
    mask = e > 0.0
    return c[mask] / e[mask]


def mean_daily_reward(mean_reward_ev: np.ndarray) -> list:
    """Fleet mean of per-EV mean recorded rewards, one value per day.

    Days where no EV recorded any reward are reported as None, not zero.
    """
    out = []
    for row in np.atleast_2d(np.asarray(mean_reward_ev, dtype=float)):
        vals = row[~np.isnan(row)]
        out.append(float(vals.mean()) if vals.size else None)
    return out


def convergence_day(daily_rewards, tol=0.05, plateau_days=10):
    """First day after which rewards stay within tol of the end plateau.

    The plateau is the mean over the final `plateau_days` non-None values;
    returns a 1-based day index or None when the trace never settles.
    """
    vals = [(d, r) for d, r in enumerate(daily_rewards) if r is not None]
    if len(vals) < plateau_days + 1:
        return None
    plateau = float(np.mean([r for _, r in vals[-plateau_days:]]))
    band = tol * max(abs(plateau), 1e-12)
    for pos in range(len(vals)):
        if all(abs(r - plateau) <= band for _, r in vals[pos:]):
            return vals[pos][0] + 1
    return None
