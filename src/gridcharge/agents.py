"""Line, bus, and EV agent behavior: criticalities, request priority,
reward, charging-need re-planning, and cooperative curtailment.

The fleet's EV agents are entries of one `Fleet`, and the plugged-in ones
are held as a `Roster` of contiguous arrays: every per-instant EV rule
takes the roster, so one call decides or records for all of them.
All EV-side quantities live in the EV's local session frame: instant 0 is
the plug-in instant and the connection window is [0, window_length).
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# Not called here; perfbench/child.py wraps it under this module's name.
from .bandit import select_super_arm

# Most (row, instant, instant) booleans `hold_samples` compares at once:
# 4 MiB, so a long window builds its rank table a few rows at a time.
RANK_CHUNK = 1 << 22

# The per-EV columns of `Fleet` and `Roster`, as (name, is float) in the
# order of the rows of their one int64 block; a float column is a float64
# view of its row, so that copying the block copies every column. The
# static columns come first, then from `soc` on the session state: `flat`
# is the index `row * m + now` into the fleet's (n, m) tables, and
# `curtail` and `force` (0 or 1) are the pending request flags.
COLUMNS = (("eta_chrg", True), ("e_bat", True), ("p_max", True),
           ("soc_target", True), ("charge_kw", True), ("need_kw_min", True),
           ("site", False), ("bus", False), ("window", False),
           ("soc", True), ("cost", True), ("grid_energy", True),
           ("battery_energy", True),
           ("k_p", False), ("now", False), ("flat", False),
           ("curtail", False), ("force", False))
_SESSION, _NOW, _FLAT = ([name for name, _ in COLUMNS].index(name)
                          for name in ("soc", "now", "flat"))
# The (name, row) pairs of the float columns, then of the others.
_COLUMNS = ([(name, j) for j, (name, is_float) in enumerate(COLUMNS)
             if is_float],
            [(name, j) for j, (name, is_float) in enumerate(COLUMNS)
             if not is_float])

__all__ = [
    "CriticalityRequest",
    "EvProfile",
    "Fleet",
    "Roster",
    "line_criticality",
    "bus_criticality",
    "request_priority",
    "sample_cooperation_targets",
    "ev_reward",
    "take_requests",
    "instants_short",
    "charging_need",
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
    """The EV fleet as arrays, one entry per EV in scenario order.

    The per-EV columns a roster copies are the rows of one block, each
    bound as an attribute of its name in `COLUMNS`: the static columns
    first, then the session state, which a plug-in resets and a `Roster`
    writes back when EVs leave. `site` and `bus` index the simulation's
    site and bus tables (0 when not given).

    The per-instant tables have m columns in the EV's local frame (column
    l is the l-th instant after plug-in), so a connection window may not
    exceed m instants. `delta_i` is the minutes per instant (1440 / m
    unless given), which `hold_samples` turns the PV estimate into
    charging instants with.
    """

    def __init__(self, profiles, m: int, delta_i=None, site=None, bus=None):
        n = len(profiles)
        self.m = m
        self.delta_i = 1440.0 / m if delta_i is None else float(delta_i)
        self.ev_ids = [p.ev_id for p in profiles]
        self.row = {ev: i for i, ev in enumerate(self.ev_ids)}
        self._block = np.zeros((len(COLUMNS), n), dtype=np.int64)
        _bind(self, _COLUMNS, self._block)

        for name in ("e_bat", "p_max", "eta_chrg", "soc_target"):
            getattr(self, name)[:] = _column(profiles, name)  # kWh, kW, 1, 1
        self.soc_start = _column(profiles, "soc_start")
        need = charging_need(profiles)
        for name in ("need_kw_min", "charge_kw", "window"):
            getattr(self, name)[:] = getattr(need, name)
        if (self.window > m).any():
            raise ValueError(f"connection windows must not exceed m={m} "
                             "instants")
        if site is not None:
            self.site[:] = site
        if bus is not None:
            self.bus[:] = bus
        self.soc[:] = self.soc_start
        self.flat[:] = np.arange(n) * m
        # soc and the session's cost, grid_energy and battery_energy sums.
        self.session_floats = self._block[_SESSION:_SESSION + 4].view(
            np.float64)
        # Whether each local instant lies inside the EV's window, and
        # [l, l'] = l' > l: the masks `hold_samples` reads.
        cols = np.arange(m)
        self._inside = cols < self.window[:, None]
        self._later = cols > cols[:, None]

        self.active = np.zeros(n, dtype=bool)
        self.day = np.zeros(n, dtype=np.int64)    # learning day of the session
        # The session's (n, m) tables, one block that a plug-in resets.
        # Filled here rather than left to lazily zeroed pages, so that
        # the first plug-in of each EV does not pay the page faults.
        self._tables = np.full((6, n, m), 0.0)
        (self.theta,       # the session's sampled theta
         self.short,       # `instants_short` at l under the sampled PV
         self.played,      # 1 where charged from grid
         self.reward,      # reward at played instants
         self.pv_mask,     # 1 at every instant seen
         self.pv_obs,      # PV reading, watt
         ) = self._tables
        # Later instants of the window with a strictly larger theta.
        self.beaten_by = np.zeros((n, m), dtype=np.int64)
        # Each table flattened, by name, for `Roster.flat` to index.
        self.cells = {name: getattr(self, name).reshape(-1)
                      for name in ("theta", "short", "played", "reward",
                                   "pv_mask", "pv_obs", "beaten_by")}

    def plug_in(self, rows, day: int):
        """Start a session on learning day `day` for each row."""
        self.active[rows] = True
        self.day[rows] = day
        self._block[_SESSION:, rows] = 0        # 0.0 in the float rows
        self.soc[rows] = self.soc_start[rows]
        self.flat[rows] = np.asarray(rows) * self.m
        self._tables[:, rows] = 0.0
        self.beaten_by[rows] = 0

    def hold_samples(self, rows, theta, phi):
        """Hold each row's posterior samples for its session, one row of
        `theta` and of `phi` (PV, watt per local instant) per EV.

        Theta is kept with -inf past the window, so no instant there beats
        one inside it, and ranked once: `beaten_by[row, l]` counts the
        later instants of the window whose theta is strictly larger. Phi is
        summed over the rest of the window, [l, window) at column l, and
        kept only as the charging instants still short of the SoC target
        under that PV (`instants_short`), so the charging need at any
        instant of the session is one lookup.
        """
        inside = self._inside[rows]
        self.theta[rows] = held = np.where(inside, theta, -np.inf)
        width = int(self.window[rows].max(initial=0))
        self.beaten_by[rows] = rank_table(held, self._later[:width, :width])
        masked = np.where(inside, phi, 0.0)
        ahead = np.cumsum(masked[:, ::-1], axis=1)[:, ::-1]
        self.short[rows] = instants_short(self.need_kw_min[rows, None],
                                          self.charge_kw[rows, None],
                                          self.delta_i, ahead)


class Roster:
    """The plugged-in EVs of a fleet as contiguous arrays, one entry per EV
    in the order of `rows`.

    Holds a copy of every `Fleet` column, under the same names (see
    `COLUMNS`). An instant works on these arrays alone, so it gathers
    nothing by row: `flat` indexes the fleet's tables (see `Fleet.cells`)
    and `advance` moves every EV on by one instant. The fleet's copy of
    the session state is stale while an EV is on the roster: `keep`
    writes it back when EVs leave.

    Every column is a row of one block, so `join` and `keep` each copy
    one array: the columns of the EVs that join, or of those that stay.
    `Roster(fleet, rows)` copies the fleet's state of `rows`, with `flat`
    recomputed from `now`.
    """

    def __init__(self, fleet: Fleet, rows=()):
        self.fleet = fleet
        rows = np.asarray(rows, dtype=np.int64)
        block = fleet._block.take(rows, axis=1)
        block[_FLAT] = rows * fleet.m + block[_NOW]
        self._hold(rows, block)

    def _hold(self, rows, block):
        self.rows, self.size, self._block = rows, len(rows), block
        _bind(self, _COLUMNS, block)
        self.pending = block[_FLAT + 1:]          # curtail, force

    def advance(self):
        """Move every EV on to its next local instant."""
        self._block[_NOW:_FLAT + 1] += 1          # now and flat

    def join(self, rows):
        """Append the fleet's `rows` at their state in the fleet."""
        rows = np.asarray(rows, dtype=np.int64)
        self._hold(np.concatenate((self.rows, rows)), np.concatenate(
            (self._block, self.fleet._block.take(rows, axis=1)), axis=1))

    def keep(self, stay):
        """Write the session state back to the fleet, and keep only the
        entries where the mask `stay` is True."""
        self.fleet._block[_SESSION:, self.rows] = self._block[_SESSION:]
        self._hold(self.rows.compress(stay),
                   self._block.compress(stay, axis=1))


def _column(profiles, name) -> np.ndarray:
    return np.array([getattr(p, name) for p in profiles], dtype=float)


def charging_need(profiles) -> SimpleNamespace:
    """The per-EV columns `required_instants` reads, one entry per profile
    in order: `need_kw_min`, the energy to the SoC target in kW-minutes,
    `charge_kw`, the battery power per grid instant, and `window`, the
    instants of the connection window. `Fleet` fills its columns of these
    names from here."""
    return SimpleNamespace(
        need_kw_min=60.0 * _column(profiles, "e_bat")
        * (_column(profiles, "soc_target") - _column(profiles, "soc_start")),
        charge_kw=_column(profiles, "p_max") * _column(profiles, "eta_chrg"),
        window=np.array([p.window_length for p in profiles], dtype=np.int64))


def _bind(owner, columns, block):
    """Bind each row of `block` as the attribute `columns` (see `_COLUMNS`)
    names it by, a float64 view of it where the column is a float."""
    (floats, others), attrs = columns, owner.__dict__
    as_float = block.view(np.float64)
    for name, j in floats:
        attrs[name] = as_float[j]
    for name, j in others:
        attrs[name] = block[j]


def rank_table(theta, later) -> np.ndarray:
    """For each row and column l of `theta`, how many later columns hold a
    strictly larger value.

    `later` is the `(width, width)` mask `[l, l'] = l' > l`: only the first
    `width` columns are compared, and every column from `width` on must
    hold -inf, so it beats nothing and counts 0. Each chunk of rows
    compares all (l, l') pairs at once, `RANK_CHUNK` booleans at most, and
    sums them as bytes; a count is below `width`, so the sum stays in
    uint8 when `width` is below 256.
    """
    out = np.zeros(theta.shape, dtype=np.int64)
    width = len(later)
    if width:
        total = np.uint8 if width < 256 else np.int64
        step = max(1, RANK_CHUNK // (width * width))
        buf = np.empty((min(step, len(theta)), width, width), dtype=bool)
        for lo in range(0, len(theta), step):
            t = theta[lo:lo + step, :width]
            beats = np.greater(t[:, None, :], t[:, :, None],
                               out=buf[:len(t)])     # [r, l, l']
            beats &= later
            out[lo:lo + step, :width] = beats.view(np.uint8).sum(axis=2,
                                                                 dtype=total)
    return out


def line_criticality(current, rated):
    """1 where the current strictly exceeds the rating, else 0; elementwise."""
    return (np.asarray(current) > rated).astype(float)


def bus_criticality(v, v_min, v_max):
    """+1 for under-voltage, -1 for over-voltage, 0 inside the (closed) band;
    elementwise."""
    return np.subtract(v < v_min, v > v_max, dtype=float)


def request_priority(criticality: float) -> tuple:
    """Ordering key for "most critical": larger magnitude first, congestion
    and under-voltage (+1) ahead of over-voltage (-1) on equal magnitude."""
    return (abs(criticality), criticality)


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
        return np.full(crits.shape[:-1], 1.0 - cost)[()]
    top = np.where(crits != 0.0, crits, -np.inf).max(axis=-1,
                                                      initial=-np.inf)
    return np.where(top > -np.inf, -top, 1.0 - cost)[()]


def take_requests(roster: Roster, received) -> np.ndarray:
    """Hold the requests each EV received (ev_id -> list) for its next
    decision.

    Sets the pending flags of the roster's EVs that a request names as
    cooperation targets (+1 curtails, -1 forces) and clears every other
    flag. Returns the criticalities each EV received as one zero-padded
    row per roster entry, with no column when no request arrived.
    """
    width = max(map(len, received.values()), default=0)
    if not width:
        roster.pending.fill(0)
        return np.zeros((roster.size, 0))
    fleet = roster.fleet
    crits = np.zeros((len(fleet.ev_ids), width))
    named = np.zeros((2, len(fleet.ev_ids)), dtype=bool)
    for ev, reqs in received.items():
        row = fleet.row[ev]
        crits[row, :len(reqs)] = [r.criticality for r in reqs]
        hits = [r.criticality for r in reqs if ev in r.target_evs]
        named[:, row] = 1.0 in hits, -1.0 in hits
    roster.pending[:] = named[:, roster.rows]
    return crits[roster.rows]


def instants_short(need_kw_min, charge_kw, delta_i: float, pv_ahead_w):
    """Grid-charging instants an EV needs to hit its SoC target, before
    counting those it has charged: the energy need in instants of
    `charge_kw` (`need_kw_min` kW-minutes, `delta_i` minutes per instant)
    less the estimated PV `pv_ahead_w` (watt summed over the EV's
    remaining connected instants), rounded up. Elementwise."""
    need = need_kw_min / (delta_i * charge_kw)
    return np.ceil(need - pv_ahead_w / 1000.0 / charge_kw)


def _still_needed(short, k_p, now, window) -> np.ndarray:
    """`short` less the instants already charged `k_p`, clamped to
    [0, remaining instants of the window]."""
    left = window - now
    if np.count_nonzero((now < 0) | (left <= 0)):
        raise ValueError("now must lie within the connection window")
    return np.maximum(np.minimum(short - k_p, left), 0.0).astype(np.int64)


def required_instants(evs, delta_i: float, pv_ahead_w, k_p,
                      now) -> np.ndarray:
    """Remaining grid-charging instants each EV of `evs` (a `Fleet`, a
    `Roster` or a `charging_need`) needs to hit its SoC target.

    `delta_i` is minutes per instant; `pv_ahead_w` is the estimated PV
    power in watt summed over the EV's remaining connected instants
    [now, window). The raw ceil value (`instants_short`) minus the
    already charged count `k_p` is clamped to [0, remaining instants].
    """
    short = instants_short(evs.need_kw_min, evs.charge_kw, delta_i,
                           pv_ahead_w)
    return _still_needed(short, k_p, now, evs.window)


def ev_decide(roster: Roster) -> np.ndarray:
    """Charging power (kW) of each roster EV at its current local instant.

    Re-plans the needed instant count k_f (`required_instants` under the
    session's PV estimate, which `Fleet.hold_samples` tabulated), charges
    when `now` is among the top k_f instants of the remaining window under
    the session's sampled theta, and overrides that on the requests
    pending for the EV: +1 always curtails, -1 forces charging while
    energy is still needed.
    """
    cells, flat = roster.fleet.cells, roster.flat
    k_f = _still_needed(cells["short"][flat], roster.k_p, roster.now,
                        roster.window)
    # `now` is in the top-k_f of [now, window) under theta, ties toward the
    # lowest index, exactly when fewer than k_f later instants beat it.
    charge = cells["beaten_by"][flat] < k_f
    if np.count_nonzero(roster.pending):
        charge = (np.where(roster.force, k_f > 0, charge)
                  & (roster.curtail == 0))
    return np.where(charge, roster.p_max, 0.0)


def ev_record(roster: Roster, charged, cost_now: float,
              neighbor_criticalities, pv_reading):
    """Perception-stage bookkeeping after the instant resolves.

    Per roster EV: whether it charged from the grid, the criticalities it
    received (a zero-padded row, see `ev_reward`) and its site's PV
    reading. Rewards are recorded only at instants the EV actually
    charged, keeping the reward accumulator consistent with the played
    mask; PV readings are recorded at every connected instant.
    """
    cells, flat = roster.fleet.cells, roster.flat
    charged = np.asarray(charged, dtype=bool)
    at = flat[charged]
    cells["played"][at] = 1.0
    roster.k_p += charged
    crits = np.asarray(neighbor_criticalities)
    # With none received, every EV that charged gets the same reward.
    crits = crits[charged] if crits.shape[-1] else ()
    cells["reward"][at] = ev_reward(cost_now, crits)
    cells["pv_mask"][flat] = 1.0
    cells["pv_obs"][flat] = pv_reading
