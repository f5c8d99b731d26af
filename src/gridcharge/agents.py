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

# Most (row, instant, instant) booleans `rank_table` compares at once:
# 4 MiB, so a long window builds its rank table a few rows at a time.
RANK_CHUNK = 1 << 22

# The per-EV columns of `Fleet` and `Roster`, as (name, is float) in the
# order of the rows of their one int64 block; a float column is a float64
# view of its row, so that copying the block copies every column. The
# static columns come first, then from `soc` on the session state: `flat`
# is the index `row * m + now` into an (n, m) table in the local frame
# (`Fleet.reward`, the learner's tables), and `curtail` and `force` (0 or
# 1) are the pending request flags.
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
# One instant, as a 0-d array of the clock's dtype: `advance` adds it
# without converting a Python int.
_STEP = np.ones((), dtype=np.int64)
_STEP.flags.writeable = False

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


@dataclass(frozen=True, eq=False)      # equal and hashed by identity
class CriticalityRequest:
    criticality: float              # in [-1, 1]
    target_rows: np.ndarray         # fleet rows asked for cooperative action
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
    first, then the state every session starts from (`soc` at the EV's
    starting SoC, `flat` at `row * m`, zero elsewhere). The block is
    built once and read-only: a `Roster` copies an EV's columns when it
    plugs in and owns its session state until it leaves. `site` and `bus`
    index the simulation's site and bus tables (0 when not given).

    The reward table has m columns in the EV's local frame (column l is
    the l-th instant after plug-in), so a connection window may not exceed
    m instants; every strategy books it and the engine's mean reward reads
    it. `delta_i` is the minutes per instant, 1440 / m.
    """

    def __init__(self, profiles, m: int, site=None, bus=None):
        n = len(profiles)
        self.m = m
        self.delta_i = 1440.0 / m
        self.ev_ids = [p.ev_id for p in profiles]
        self._block = np.zeros((len(COLUMNS), n), dtype=np.int64)
        _bind(self, _COLUMNS, self._block)

        for name in ("e_bat", "p_max", "eta_chrg", "soc_target"):
            getattr(self, name)[:] = _column(profiles, name)  # kWh, kW, 1, 1
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
        self.soc[:] = _column(profiles, "soc_start")
        self.flat[:] = np.arange(n) * m
        # Rebound so that the column views are read-only too.
        self._block.flags.writeable = False
        _bind(self, _COLUMNS, self._block)
        # The reward at played instants. Filled here rather than left to
        # lazily zeroed pages, so that the first plug-in of each EV does not
        # pay the page faults.
        self.reward = np.full((n, m), 0.0)

    def plug_in(self, rows):
        """Start a session for each row: clear its rewards."""
        self.reward[rows] = 0.0


class Roster:
    """The plugged-in EVs of a fleet as contiguous arrays, one entry per EV
    in the order of `rows`, and the one owner of their session state.

    Holds a copy of every `Fleet` column, under the same names (see
    `COLUMNS`), taken from the fleet's starting state as each EV joins.
    An instant works on these arrays alone, so it gathers nothing by row:
    `flat` indexes the (n, m) tables (`Fleet.reward`, the learner's) and
    `advance` moves every EV on by one instant, so an EV's session is over
    when its `now` reaches its `window`. `session_floats` are the rows `soc`,
    `cost`, `grid_energy` and `battery_energy`: what a session leaves.

    Every column is a row of one block, so `join` and `keep` each copy
    one array: the columns of the EVs that join, or of those that stay.

    `pending` holds the `curtail` and `force` rows, and `n_pending` counts
    their set flags, so that an instant with none pending tests one int.
    Write the flags through `set_pending`, which keeps the count.
    """

    def __init__(self, fleet: Fleet, rows=()):
        self.fleet = fleet
        rows = np.asarray(rows, dtype=np.int64)
        self._hold(rows, fleet._block.take(rows, axis=1))
        self.n_pending = 0          # the fleet's start state has none

    def _hold(self, rows, block):
        self.rows, self.size, self._block = rows, len(rows), block
        _bind(self, _COLUMNS, block)
        self._clock = block[_NOW:_FLAT + 1]       # now, flat
        self.pending = block[_FLAT + 1:]          # curtail, force
        self.session_floats = block[_SESSION:_SESSION + 4].view(np.float64)

    def set_pending(self, flags):
        """Set the pending request flags to `flags`, the `curtail` and the
        `force` flag of every entry (0 or 1); None clears them."""
        if flags is None:
            if self.n_pending:
                self.pending.fill(0)
                self.n_pending = 0
        else:
            self.pending[:] = flags
            self.n_pending = int(np.count_nonzero(self.pending))

    def advance(self):
        """Move every EV on to its next local instant."""
        self._clock += _STEP                      # now and flat

    def join(self, rows):
        """Append the fleet's `rows` at the state their sessions start
        from, with no request pending."""
        rows = np.asarray(rows, dtype=np.int64)
        self._hold(np.concatenate((self.rows, rows)), np.concatenate(
            (self._block, self.fleet._block.take(rows, axis=1)), axis=1))

    def keep(self, stay):
        """Keep only the entries where the mask `stay` is True."""
        self._hold(self.rows.compress(stay),
                   self._block.compress(stay, axis=1))
        self.n_pending = int(np.count_nonzero(self.pending))


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


def sample_cooperation_targets(pool, count: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement draw of the EVs asked to cooperate:
    `count` entries of `pool` (all of them when it holds fewer), the fleet
    rows of the grid-charging EVs in the order of their ids."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not len(pool):
        return pool
    take = min(count, len(pool))
    return pool[rng.choice(len(pool), size=take, replace=False)]


def ev_reward(cr_ev, top):
    """Charging reward: minus `top`, the largest nonzero criticality
    received, or one minus the normalized electricity cost where `top` is
    0 (none arrived). `top` holds one value per row, or is None when no
    row received a request, for which the reward is the one float
    1 - cost. The cost is one float for every row, the instant's price,
    which `engine.Scenario` range-checks once."""
    cost = float(cr_ev)
    if not 0.0 <= cost <= 1.0:
        raise ValueError("EV criticality (normalized cost) must be in [0, 1]")
    if top is None:
        return 1.0 - cost
    return np.where(top, np.negative(top), 1.0 - cost)


def take_requests(roster: Roster, received: dict) -> np.ndarray | None:
    """Hold the requests the roster's EVs received (fleet row -> its bus's
    adoptions, one list per bus) for their next decision.

    Sets the pending flags of the roster's EVs that a +1 (curtail) or -1
    (force) request names as cooperation targets, where their bus adopted
    it, and clears every other flag. Returns, per roster EV, the largest
    nonzero criticality it received, 0 when none; or None when no roster
    EV received a request.
    """
    if not received:
        roster.set_pending(None)
        return None
    fleet_bus = roster.fleet.bus
    by_bus = dict(zip(fleet_bus[list(received)].tolist(), received.values()))
    top = np.zeros(int(fleet_bus.max()) + 1)
    # The +1 and the -1 request each bus adopted (one per level at most),
    # numbered in `asks`.
    held, asks = np.full((2, len(top)), -1), {}
    for bus, seq in by_bus.items():
        top[bus] = max((q.criticality for q in seq if q.criticality),
                       default=0.0)
        for q in seq:
            if abs(q.criticality) == 1.0:
                held[int(q.criticality < 0.0), bus] = asks.setdefault(
                    q, len(asks))
    named = np.zeros((2, len(fleet_bus)), dtype=bool)   # curtail, force
    if asks:
        rows = np.concatenate([q.target_rows for q in asks])
        ask = np.repeat(np.arange(len(asks)),
                        [len(q.target_rows) for q in asks])
        side, hit = np.nonzero(held[:, fleet_bus[rows]] == ask)
        named[side, rows[hit]] = True
    roster.set_pending(named[:, roster.rows])
    return top[roster.bus]


def instants_short(need_kw_min, charge_kw, delta_i: float, pv_ahead_w):
    """Grid-charging instants an EV needs to hit its SoC target, before
    counting those it has charged: the energy need in instants of
    `charge_kw` (`need_kw_min` kW-minutes, `delta_i` minutes per instant)
    less the estimated PV `pv_ahead_w` (watt summed over the EV's
    remaining connected instants), rounded up. Elementwise."""
    need = need_kw_min / (delta_i * charge_kw)
    return np.ceil(need - pv_ahead_w / 1000.0 / charge_kw)


def required_instants(evs, delta_i: float, pv_ahead_w, k_p,
                      now) -> np.ndarray:
    """Remaining grid-charging instants each EV of `evs` (a `Fleet`, a
    `Roster` or a `charging_need`) needs to hit its SoC target.

    `delta_i` is minutes per instant; `pv_ahead_w` is the estimated PV
    power in watt summed over the EV's remaining connected instants
    [now, window). The raw ceil value (`instants_short`) minus the
    already charged count `k_p` is clamped to [0, remaining instants].
    """
    left = evs.window - now
    if np.count_nonzero((now < 0) | (left <= 0)):
        raise ValueError("now must lie within the connection window")
    short = instants_short(evs.need_kw_min, evs.charge_kw, delta_i,
                           pv_ahead_w)
    return np.maximum(np.minimum(short - k_p, left), 0.0).astype(np.int64)


def ev_decide(roster: Roster, short, slack) -> np.ndarray:
    """Charging power (kW) of each roster EV at its current local instant.

    Charges when `now` is among the top k_f instants of the remaining
    window under the session's sampled theta, where k_f is the needed
    instant count `required_instants` re-plans under the session's PV
    estimate, and overrides that on the requests pending for the EV: +1
    always curtails, -1 forces charging while energy is still needed.

    Each rule is one lookup in the `(n, m)` tables `short` and `slack` at
    the roster's `flat` cells (`AmasStrategy.hold_samples`). With ties
    toward the lowest index, `now` is in that top k_f exactly when
    beaten_by < k_f = clamp(short - k_p, 0, left), left = window - now
    >= 1. As 0 <= beaten_by <= left - 1, that is beaten_by < short - k_p,
    or k_p < slack; and k_f > 0 exactly when short > k_p.
    """
    flat, k_p = roster.flat, roster.k_p
    charge = k_p < slack.take(flat)
    if roster.n_pending:
        charge = (np.where(roster.force, short.take(flat) > k_p, charge)
                  & (roster.curtail == 0))
    return roster.p_max * charge


def ev_record(roster: Roster, charged, cost_now: float, top) -> np.ndarray:
    """The booking every strategy makes after the instant resolves.

    Per roster EV that charged from the grid: one more instant charged in
    `k_p`, and its reward (`ev_reward`) in `Fleet.reward`, from the largest
    nonzero criticality it received (`top`, an array of one per roster EV,
    0 when none; None when no EV received one, so that every reward is the
    float 1 - `cost_now`). Returns the flat table cells of the EVs that
    charged.
    """
    charged = np.asarray(charged, dtype=bool)
    at = roster.flat[charged]
    roster.k_p += charged
    roster.fleet.reward.put(at, ev_reward(
        cost_now, None if top is None else top[charged]))
    return at
