"""Reference tools the tests check the program against; the program itself
does not use them.

`SuperArm` scores a set of instants under a parameter vector,
`pseudo_regret` traces the regret of a run of daily selections, and
`power_mismatch` recomputes a power-flow solution's residual from its
complex voltages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridcharge.bandit import select_super_arm
from gridcharge.gridnet import NetworkTopology, PowerFlowSolution


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
        best = SuperArm(select_super_arm(true_theta,
                                         range(true_theta.shape[0]), kd))
        opt = best.value(true_theta)
        est[d] = opt - arm.value(np.asarray(theta_hat_d, dtype=float))
        tru[d] = opt - arm.value(true_theta)
    return {"estimated": np.cumsum(est), "true": np.cumsum(tru)}


def power_mismatch(net: NetworkTopology, solution: PowerFlowSolution,
                   injections) -> float:
    """Worst per-unit complex-power residual of a solution (base v_base^2 VA).

    Recomputes each non-slack bus's net injection from the complex voltages
    and compares against the specified active powers (reactive spec is 0).
    """
    p = net.injection_array(injections)
    v = solution.v_complex
    i_line = (v[net.line_from] - v[net.line_to]) / net.impedance
    i_net = np.zeros(net.n_buses, dtype=complex)
    np.add.at(i_net, net.line_to, i_line)
    np.subtract.at(i_net, net.line_from, i_line)
    s = v * np.conj(i_net)
    mismatch = s - p
    root = net.bus_index[net.slack_bus_id]
    mismatch[root] = 0.0
    return float(np.max(np.abs(mismatch)) / net.v_base**2)
