"""Line, bus, and EV agent behavior: criticalities, request forwarding,
reward, charging-need re-planning, and cooperative curtailment.

The fleet's EV agents are rows of one `Fleet`, and every EV rule takes the
rows it acts on, so one call decides or records for all plugged-in EVs.
All EV-side quantities live in the EV's local session frame: instant 0 is
the plug-in instant and the connection window is [0, window_length).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Not called here; perfbench/child.py wraps it under this module's name.
from .bandit import select_super_arm

# Most (row, instant, instant) booleans `hold_samples` compares at once:
# 4 MiB, so a long window builds its rank table a few rows at a time.
RANK_CHUNK = 1 << 22

__all__ = [
    "CriticalityRequest",
    "EvProfile",
    "Fleet",
    "line_criticality",
    "bus_criticality",
    "request_priority",
    "forward_request",
    "sample_cooperation_targets",
    "ev_reward",
    "take_requests",
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


class Fleet:
    """The EV fleet as arrays, one row per EV in scenario order.

    The static columns come from the profiles. The session state is reset
    at every plug-in; its per-instant arrays have m columns in the EV's
    local frame (column l is the l-th instant after plug-in), so a
    connection window may not exceed m instants.
    """

    def __init__(self, profiles, m: int):
        n = len(profiles)
        self.m = m
        self.ev_ids = [p.ev_id for p in profiles]
        self.row = {ev: i for i, ev in enumerate(self.ev_ids)}

        def column(name):
            return np.array([getattr(p, name) for p in profiles], dtype=float)
        self.e_bat = column("e_bat")            # kWh
        self.p_max = column("p_max")            # kW
        self.eta_chrg = column("eta_chrg")
        self.soc_start = column("soc_start")
        self.soc_target = column("soc_target")
        self.window = np.array([p.window_length for p in profiles],
                               dtype=np.int64)
        if (self.window > m).any():
            raise ValueError(f"connection windows must not exceed m={m} "
                             "instants")
        # Per-EV constants of the charging need: the energy to the SoC
        # target in kW-minutes and the battery power per grid instant.
        self.need_kw_min = 60.0 * self.e_bat * (self.soc_target
                                                - self.soc_start)
        self.charge_kw = self.p_max * self.eta_chrg

        self.active = np.zeros(n, dtype=bool)
        self.day = np.zeros(n, dtype=np.int64)    # learning day of the session
        self.now = np.zeros(n, dtype=np.int64)    # local instant
        self.soc = self.soc_start.copy()
        self.k_p = np.zeros(n, dtype=np.int64)    # instants charged from grid
        self.theta = np.zeros((n, m))             # the session's sampled theta
        # Later instants of the window with a strictly larger theta.
        self.beaten_by = np.zeros((n, m), dtype=np.int64)
        self.pv_ahead = np.zeros((n, m))          # sampled PV, watt, [l, window)
        self.played = np.zeros((n, m))            # 1 where charged from grid
        self.reward = np.zeros((n, m))            # reward at played instants
        self.pv_mask = np.zeros((n, m))           # 1 at every instant seen
        self.pv_obs = np.zeros((n, m))            # PV reading, watt
        self.curtail = np.zeros(n, dtype=bool)    # a pending +1 names the EV
        self.force = np.zeros(n, dtype=bool)      # a pending -1 names the EV

    def plug_in(self, rows, day: int):
        """Start a session on learning day `day` for each row."""
        self.active[rows] = True
        self.day[rows] = day
        self.now[rows] = 0
        self.soc[rows] = self.soc_start[rows]
        self.k_p[rows] = 0
        for a in (self.theta, self.beaten_by, self.pv_ahead, self.played,
                  self.reward, self.pv_mask, self.pv_obs):
            a[rows] = 0.0
        self.curtail[rows] = False
        self.force[rows] = False

    def hold_samples(self, rows, theta, phi):
        """Hold each row's posterior samples for its session, one row of
        `theta` and of `phi` (PV, watt per local instant) per EV.

        Theta is kept with -inf past the window, so no instant there beats
        one inside it, and ranked once: `beaten_by[row, l]` counts the
        later instants of the window whose theta is strictly larger. Phi is
        kept as its sums over the rest of the window, [l, window) at column
        l, so the charging need reads the PV still ahead in O(1).
        """
        window = self.window[rows]
        inside = np.arange(self.m) < window[:, None]
        self.theta[rows] = held = np.where(inside, theta, -np.inf)
        self.beaten_by[rows] = rank_table(held, int(window.max(initial=0)))
        masked = np.where(inside, phi, 0.0)
        self.pv_ahead[rows] = np.cumsum(masked[:, ::-1], axis=1)[:, ::-1]


def rank_table(theta, width: int) -> np.ndarray:
    """For each row and column l of `theta`, how many later columns hold a
    strictly larger value.

    Only the first `width` columns are compared; every column from `width`
    on must hold -inf, so it beats nothing and counts 0. Each chunk of rows
    compares all (l, l') pairs at once, `RANK_CHUNK` booleans at most.
    """
    out = np.zeros(theta.shape, dtype=np.int64)
    if width:
        cols = np.arange(width)
        later = cols > cols[:, None]                 # [l, l'] = l' > l
        step = max(1, RANK_CHUNK // (width * width))
        buf = np.empty((min(step, len(theta)), width, width), dtype=bool)
        for lo in range(0, len(theta), step):
            t = theta[lo:lo + step, :width]
            beats = np.greater(t[:, None, :], t[:, :, None],
                               out=buf[:len(t)])     # [r, l, l']
            beats &= later
            out[lo:lo + step, :width] = beats.sum(axis=2)
    return out


def line_criticality(current, rated):
    """1 where the current strictly exceeds the rating, else 0; elementwise."""
    current, rated = np.asarray(current), np.asarray(rated)
    if (current < 0.0).any() or (rated < 0.0).any():
        raise ValueError("current magnitudes must be >= 0")
    return (current > rated).astype(float)


def bus_criticality(v, v_min, v_max):
    """+1 for under-voltage, -1 for over-voltage, 0 inside the (closed) band;
    elementwise."""
    if (np.asarray(v_min) >= v_max).any():
        raise ValueError("v_min must be < v_max")
    return np.subtract(v < v_min, v > v_max, dtype=float)


def request_priority(criticality: float) -> tuple:
    """Ordering key for "most critical": larger magnitude first, congestion
    and under-voltage (+1) ahead of over-voltage (-1) on equal magnitude."""
    return (abs(criticality), criticality)


def forward_request(held, received):
    """One agent's forwarding rule for the requests received in one round.

    `held` is the request the agent holds (its own, or the last one it
    adopted) or None. Returns the most critical received request, to be
    adopted and passed on, or None when it does not strictly beat `held`.
    Ties break toward the lowest origin id.

    Lines, buses and EVs apply the same rule. A bus needs no preference for
    line-congestion requests over bus requests: flooding runs in
    synchronous rounds over the bipartite line/bus tree and every request
    starts in round 0, so a bus receives requests of bus origin only in
    even rounds and of line origin only in odd rounds, and one round never
    mixes the two kinds.

    An equal-priority request is not relayed, by design. A bus holding its
    own +1 under-voltage request does not pass on a +1 line-congestion
    request: the EVs behind it already receive a +1, which asks the same
    action (curtail) and gives the same reward (-1), and only the line's
    named cooperation targets behind that bus miss their curtailment for
    the instant; the line asks again, with fresh targets, at every instant
    it stays congested. A strict gain also bounds the flood: each agent
    adopts at most one request per priority level.
    """
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


def ev_reward(cr_ev, neighbor_criticalities):
    """Charging reward: -max of the nonzero neighborhood criticalities when
    any exist, else one minus the normalized electricity cost.

    The cost is one float for every row: the instant's price, which
    `engine.Scenario` range-checks once. The criticalities run along the
    last axis: a matrix, zero-padded, gives one reward per row.
    """
    cost = float(cr_ev)
    if not 0.0 <= cost <= 1.0:
        raise ValueError("EV criticality (normalized cost) must be in [0, 1]")
    crits = np.asarray(neighbor_criticalities, dtype=float)
    if crits.shape[-1:] == (0,):   # none received: no maximum to take
        return (1.0 - cost) + np.zeros(crits.shape[:-1])
    top = np.where(crits != 0.0, crits, -np.inf).max(axis=-1,
                                                      initial=-np.inf)
    return np.where(top > -np.inf, -top, 1.0 - cost)[()]


def take_requests(fleet: Fleet, rows, received) -> np.ndarray:
    """Hold the requests each EV received (ev_id -> list) for its next
    decision.

    Sets the pending flags of the EVs that a request names as cooperation
    targets (+1 curtails, -1 forces) and clears every other flag. Returns
    the criticalities each of `rows` received as one zero-padded row per
    EV, with no column when no request arrived.
    """
    fleet.curtail[:] = False
    fleet.force[:] = False
    width = max(map(len, received.values()), default=0)
    if not width:
        return np.zeros((len(rows), 0))
    crits = np.zeros((len(fleet.ev_ids), width))
    for ev, reqs in received.items():
        row = fleet.row[ev]
        crits[row, :len(reqs)] = [r.criticality for r in reqs]
        named = [r.criticality for r in reqs if ev in r.target_evs]
        fleet.curtail[row] = 1.0 in named
        fleet.force[row] = -1.0 in named
    return crits[rows]


def required_instants(fleet: Fleet, rows, delta_i: float, pv_ahead_w, k_p,
                      now) -> np.ndarray:
    """Remaining grid-charging instants each row needs to hit its SoC
    target.

    `delta_i` is minutes per instant; `pv_ahead_w` is the estimated PV
    power in watt summed over the row's remaining connected instants
    [now, window). The raw ceil value minus the already charged count
    `k_p` is clamped to [0, remaining instants].
    """
    window = fleet.window[rows]
    if ((now < 0) | (now >= window)).any():
        raise ValueError("now must lie within the connection window")
    per_instant = fleet.charge_kw[rows]
    need = fleet.need_kw_min[rows] / (delta_i * per_instant)
    raw = np.ceil(need - pv_ahead_w / 1000.0 / per_instant) - k_p
    return np.maximum(0, np.minimum(raw, window - now)).astype(np.int64)


def ev_decide(fleet: Fleet, rows, delta_i: float) -> np.ndarray:
    """Charging power (kW) of each row's EV at its current local instant.

    Re-plans the needed instant count k_f, charges when `now` is among the
    top k_f instants of the remaining window under the session's sampled
    theta, and overrides that on the requests pending for the EV: +1
    always curtails, -1 forces charging while energy is still needed.
    """
    now = fleet.now[rows]
    k_f = required_instants(fleet, rows, delta_i, fleet.pv_ahead[rows, now],
                            fleet.k_p[rows], now)
    # `now` is in the top-k_f of [now, window) under theta, ties toward the
    # lowest index, exactly when fewer than k_f later instants beat it.
    charge = (np.where(fleet.force[rows], k_f > 0,
                       fleet.beaten_by[rows, now] < k_f)
              & ~fleet.curtail[rows])
    return np.where(charge, fleet.p_max[rows], 0.0)


def ev_record(fleet: Fleet, rows, charged, cost_now: float,
              neighbor_criticalities, pv_reading):
    """Perception-stage bookkeeping after the instant resolves.

    Per row: whether the EV charged from the grid, the criticalities it
    received (a zero-padded row, see `ev_reward`) and its site's PV
    reading. Rewards are recorded only at instants the EV actually
    charged, keeping the reward accumulator consistent with the played
    mask; PV readings are recorded at every connected instant.
    """
    rows = np.asarray(rows)
    charged = np.asarray(charged, dtype=bool)
    now = fleet.now[rows]
    got, at = rows[charged], now[charged]
    fleet.played[got, at] = 1.0
    fleet.k_p[got] += 1
    fleet.reward[got, at] = ev_reward(
        cost_now, np.asarray(neighbor_criticalities)[charged])
    fleet.pv_mask[rows, now] = 1.0
    fleet.pv_obs[rows, now] = pv_reading
