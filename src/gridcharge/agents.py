"""Line, bus, and EV agent behavior: criticalities, request forwarding,
reward, charging-need re-planning, and cooperative curtailment.

All EV-side quantities live in the EV's local session frame: instant 0 is
the plug-in instant and the connection window is [0, window_length).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Not called here; perfbench/child.py wraps it under this module's name.
from .bandit import select_super_arm

__all__ = [
    "CriticalityRequest",
    "EvProfile",
    "EvState",
    "line_criticality",
    "bus_criticality",
    "request_priority",
    "forward_request",
    "sample_cooperation_targets",
    "ev_reward",
    "required_instants",
    "ev_decide",
    "ev_record",
]


@dataclass(frozen=True)
class CriticalityRequest:
    criticality: float              # in [-1, 1]
    target_evs: frozenset           # EV ids asked for cooperative action
    origin_agent: str
    origin_kind: str                # "line" | "bus"
    instant: int

    def __post_init__(self):
        if not -1.0 <= self.criticality <= 1.0:
            raise ValueError("criticality must lie in [-1, 1]")
        if self.origin_kind not in ("line", "bus"):
            raise ValueError(f"unknown origin kind {self.origin_kind!r}")


@dataclass(frozen=True)
class EvProfile:
    ev_id: str
    bus_id: str
    e_bat: float          # kWh
    p_max: float          # kW
    eta_chrg: float       # (0, 1]
    soc_start: float
    soc_target: float
    t_arrive: int         # absolute instant in [0, m)
    t_depart: int         # absolute instant, > t_arrive (next-day departures
                          # carry an offset of m, so the window never wraps)

    def __post_init__(self):
        if not (0.0 <= self.soc_start <= self.soc_target <= 1.0):
            raise ValueError(f"{self.ev_id}: need 0 <= soc_start <= soc_target <= 1")
        if not (0.0 < self.eta_chrg <= 1.0):
            raise ValueError(f"{self.ev_id}: eta_chrg must be in (0, 1]")
        if self.e_bat <= 0 or self.p_max <= 0:
            raise ValueError(f"{self.ev_id}: e_bat and p_max must be > 0")
        if self.t_arrive >= self.t_depart:
            raise ValueError(f"{self.ev_id}: t_arrive must precede t_depart")

    @property
    def window_length(self) -> int:
        return self.t_depart - self.t_arrive


@dataclass
class EvState:
    """Per-session mutable EV state (reset at every plug-in)."""
    soc: float
    m: int
    k_p: int = 0
    played_mask: np.ndarray = None
    reward_trace: np.ndarray = None
    sampled_theta: np.ndarray = None
    sampled_phi: np.ndarray = None
    pv_mask: np.ndarray = None
    pv_obs: np.ndarray = None

    def __post_init__(self):
        for name in ("played_mask", "reward_trace", "pv_mask", "pv_obs"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.m))


def line_criticality(current: float, rated: float) -> float:
    """1 when the current strictly exceeds the rating, else 0."""
    if current < 0.0 or rated < 0.0:
        raise ValueError("current magnitudes must be >= 0")
    return 1.0 if current > rated else 0.0


def bus_criticality(v: float, v_min: float, v_max: float) -> float:
    """+1 for under-voltage, -1 for over-voltage, 0 inside the (closed) band."""
    if v_min >= v_max:
        raise ValueError("v_min must be < v_max")
    if v < v_min:
        return 1.0
    if v > v_max:
        return -1.0
    return 0.0


def request_priority(criticality: float) -> tuple:
    """Ordering key for "most critical": larger magnitude first, congestion
    and under-voltage (+1) ahead of over-voltage (-1) on equal magnitude."""
    return (abs(criticality), criticality)


def forward_request(kind: str, held, received):
    """One agent's forwarding rule for the requests received in one round.

    `kind` is "line", "bus" or "ev"; `held` is the request the agent holds
    (its own, or the last one it adopted) or None. Returns the most critical
    received request, to be adopted and passed on, or None when it does not
    strictly beat `held`. A bus considers only received line-congestion
    requests (+1 from a line) when there are any. Ties break toward the
    lowest origin id.
    """
    if kind == "bus":
        received = [r for r in received
                    if r.origin_kind == "line" and r.criticality == 1.0] \
            or received
    best = max(sorted(received, key=lambda r: r.origin_agent), default=None,
               key=lambda r: request_priority(r.criticality))
    if best is None or (held is not None and request_priority(best.criticality)
                        <= request_priority(held.criticality)):
        return None
    return best


def sample_cooperation_targets(grid_charging_evs, count: int,
                               rng: np.random.Generator) -> frozenset:
    """Uniform without-replacement draw of EVs asked to cooperate."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pool = sorted(grid_charging_evs)
    if not pool:
        return frozenset()
    take = min(count, len(pool))
    picked = rng.choice(len(pool), size=take, replace=False)
    return frozenset(pool[i] for i in picked)


def ev_reward(cr_ev: float, neighbor_criticalities) -> float:
    """Charging reward: -max of the nonzero neighborhood criticalities when
    any exist, else one minus the normalized electricity cost."""
    if not (0.0 <= cr_ev <= 1.0):
        raise ValueError("EV criticality (normalized cost) must be in [0, 1]")
    nonzero = [c for c in neighbor_criticalities if c != 0.0]
    if nonzero:
        return -max(nonzero)
    return 1.0 - cr_ev


def required_instants(profile: EvProfile, delta_i: float, phi_estimate,
                      k_p: int, now: int) -> int:
    """Remaining grid-charging instants needed to hit the SoC target.

    `delta_i` is minutes per instant; `phi_estimate` is the estimated PV
    power in watt per local instant; the PV sum runs over the remaining
    connected instants [now, window). The raw ceil value minus the already
    charged count is clamped to [0, remaining instants].
    """
    window = profile.window_length
    if not (0 <= now < window):
        raise ValueError("now must lie within the connection window")
    phi = np.asarray(phi_estimate, dtype=float)
    pv_sum_kw = float(phi[now:window].sum()) / 1000.0
    per_instant = profile.p_max * profile.eta_chrg
    need = (60.0 * profile.e_bat * (profile.soc_target - profile.soc_start)
            / (delta_i * per_instant))
    raw = math.ceil(need - pv_sum_kw / per_instant) - k_p
    remaining = window - now
    return max(0, min(raw, remaining))


def _targeted(requests, ev_id, criticality):
    return any(r.criticality == criticality and ev_id in r.target_evs
               for r in requests)


def ev_decide(profile: EvProfile, state: EvState, now: int, requests,
              delta_i: float) -> float:
    """Charging power (kW) for the current local instant.

    Re-plans the needed instant count, re-selects the top instants of the
    remaining window under the day's sampled parameter, and overrides the
    selection on cooperative requests naming this EV: +1 always curtails,
    -1 forces charging while energy is still needed.
    """
    if _targeted(requests, profile.ev_id, 1.0):
        return 0.0
    k_f = required_instants(profile, delta_i, state.sampled_phi, state.k_p, now)
    if _targeted(requests, profile.ev_id, -1.0):
        return profile.p_max if k_f > 0 else 0.0
    # `now` is in the top-k_f of [now, window) under theta, ties toward the
    # lowest index, exactly when fewer than k_f later instants beat it.
    theta = state.sampled_theta
    beaten_by = np.count_nonzero(
        theta[now + 1:profile.window_length] > theta[now])
    return profile.p_max if beaten_by < k_f else 0.0


def ev_record(state: EvState, now: int, charged: bool, cost_now: float,
              neighbor_criticalities, pv_reading: float) -> EvState:
    """Perception-stage bookkeeping after the instant resolves.

    Rewards are recorded only at instants the EV actually charged, keeping
    the reward accumulator consistent with the played mask; PV readings are
    recorded at every connected instant.
    """
    if charged:
        state.played_mask[now] = 1.0
        state.k_p = int(state.played_mask.sum())
        state.reward_trace[now] = ev_reward(cost_now, neighbor_criticalities)
    state.pv_mask[now] = 1.0
    state.pv_obs[now] = pv_reading
    return state
