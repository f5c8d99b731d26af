"""Charging strategies plugged into the simulation engine.

AmasStrategy is the decentralized learner (one bandit pair per EV plus the
cooperative-request protocol handled in agents). UncontrolledStrategy and
ScheduleStrategy provide the two comparison baselines; centralized_oracle
plans schedules for the latter greedily under perfect PV knowledge.
"""
from __future__ import annotations

import base64
import zlib

import numpy as np

from . import agents
from .agents import (Fleet, Roster, charging_need, ev_record,
                     instants_short, rank_table, required_instants)
from .bandit import (REWARD_PRIOR_MEAN, BanditState, sample_parameter,
                     update_day, update_pv)
from .engine import GridJudge, Scenario, instant_tables, site_injections
from .gridnet import solve_power_flow

__all__ = [
    "Strategy",
    "AmasStrategy",
    "UncontrolledStrategy",
    "ScheduleStrategy",
    "uncontrolled_action",
    "centralized_oracle",
    "CHECKPOINT_FORMAT",
]

CHECKPOINT_FORMAT = "gridcharge.checkpoint/5"


class Strategy:
    """Hooks the engine calls: at session boundaries on fleet rows (arrays
    of EV indices into the `Fleet`), at every instant on the `Roster` of
    plugged-in EVs. Defaults do nothing, and feedback calls `ev_record`."""

    def attach(self, fleet: Fleet):
        """Called once with the simulation's fleet, before any session."""

    def session_start(self, fleet: Fleet, rows, rng):
        pass

    def decide(self, roster: Roster) -> np.ndarray:
        raise NotImplementedError

    def feedback(self, roster: Roster, charged, cost_norm, top, pv_w):
        ev_record(roster, charged, cost_norm, top)

    def session_end(self, fleet: Fleet, rows):
        """Called with the rows whose sessions ended since the last plug-in
        (at the end of the run, since the last call), each once, before
        any of them plugs in again; until then their rewards and the
        strategy's session tables stay as the sessions left them."""


class AmasStrategy(Strategy):
    """Per-EV combinatorial linear Thompson Sampling with cooperation;
    `alpha` and `beta` are the exploration scales of the reward and the
    PV learner (the config's `bandit` keys).

    Each learner of the fleet is one `BanditState` of `(n_ev, m)` matrices,
    one row per EV in fleet order: `bandit` (reward) and `pv`. Once
    attached, both are views of one `(n_ev, 2, m)` stack, so a session
    start gathers its rows of both learners in one step.

    It also holds its sessions' `(n_ev, m)` tables, which a roster reads
    at its `flat` cells: `played` (1 where charged from the grid) and
    `pv_obs` (PV reading, watt), which `session_end` learns from, and
    `short` and `slack`, which `hold_samples` fills for `ev_decide`.
    """

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta
        self.ev_ids = None     # fleet order of the learner rows
        self.bandit = None     # reward learner
        self.pv = None         # PV learner
        self._both = None      # both learners as one (n_ev, 2, m) stack
        self.days_completed = 0

    def attach(self, fleet):
        if self.ev_ids is None:
            n = len(fleet.ev_ids)
            self.ev_ids = list(fleet.ev_ids)
            self.bandit = BanditState.initial(fleet.m, self.alpha,
                                              REWARD_PRIOR_MEAN, n)
            self.pv = BanditState.initial(fleet.m, self.beta, 0.0, n)
        elif (self.ev_ids != fleet.ev_ids
              or self.bandit.precision.shape[1] != fleet.m):
            raise ValueError("the learner rows do not match the fleet")
        precision = np.stack((self.bandit.precision, self.pv.precision),
                             axis=1)
        response = np.stack((self.bandit.response, self.pv.response), axis=1)
        self._both = BanditState(precision, response,
                                 np.array([[self.alpha], [self.beta]],
                                          dtype=float))
        self.bandit = BanditState(precision[:, 0], response[:, 0],
                                  self.bandit.scale)
        self.pv = BanditState(precision[:, 1], response[:, 1], self.pv.scale)
        # Whether each local instant lies inside the EV's window, that is
        # where every session reads PV, and [l, l'] = l' > l: the masks
        # `hold_samples` reads.
        cols = np.arange(fleet.m)
        self.inside = cols < fleet.window[:, None]
        self._later = cols > cols[:, None]
        # The session tables, one block, filled here rather than left to
        # lazily zeroed pages, so that the first plug-in of each EV does
        # not pay the page faults.
        self._tables = np.full((4, len(fleet.ev_ids), fleet.m), 0.0)
        self.played, self.pv_obs, self.short, self.slack = self._tables

    def session_start(self, fleet, rows, rng):
        # One block draw, row by row, theta before phi.
        both = self._both
        sample = sample_parameter(
            BanditState(both.precision[rows], both.response[rows],
                        both.scale), rng)
        self.hold_samples(fleet, rows, sample[:, 0], sample[:, 1])

    def hold_samples(self, fleet, rows, theta, phi):
        """Hold each row's posterior samples for its session, one row of
        `theta` and of `phi` (PV, watt per local instant) per EV, and
        clear the row's `played` and `pv_obs`.

        Phi is summed over the rest of the window, [l, window) at column
        l, and kept as the charging instants still short of the SoC target
        under that PV (`instants_short`), so the charging need at any
        instant of the session is one lookup. Theta is ranked once, with
        -inf past the window so that no instant there beats one inside it
        (`rank_table`), and `slack[row, l]` is `short` less the later
        instants of the window whose theta is strictly larger: the one
        lookup `ev_decide` compares the instants charged with.
        """
        self._tables[:2, rows] = 0.0
        inside = self.inside[rows]
        masked = np.where(inside, phi, 0.0)
        ahead = np.cumsum(masked[:, ::-1], axis=1)[:, ::-1]
        self.short[rows] = short = instants_short(
            fleet.need_kw_min[rows, None], fleet.charge_kw[rows, None],
            fleet.delta_i, ahead)
        width = int(fleet.window[rows].max(initial=0))
        self.slack[rows] = short - rank_table(
            np.where(inside, theta, -np.inf), self._later[:width, :width])

    def decide(self, roster):
        return agents.ev_decide(roster, self.short, self.slack)

    def feedback(self, roster, charged, cost_norm, top, pv_w):
        # Also the played mask and PV readings that `session_end` reads.
        self.played.put(ev_record(roster, charged, cost_norm, top), 1.0)
        self.pv_obs.put(roster.flat, pv_w)

    def session_end(self, fleet, rows):
        update_day(self.bandit, self.played[rows], fleet.reward[rows], rows)
        update_pv(self.pv, self.inside[rows], self.pv_obs[rows], rows)

    # -- checkpointing -----------------------------------------------------

    def to_checkpoint(self) -> dict:
        def dump(st):
            return {"precision": _pack(st.precision),
                    "response": _pack(st.response)}
        return {
            "format": CHECKPOINT_FORMAT,
            "days_completed": self.days_completed,
            "alpha": self.alpha,
            "beta": self.beta,
            "evs": self.ev_ids,
            "instants_per_day": self.bandit.precision.shape[1],
            "bandit": dump(self.bandit),
            "pv": dump(self.pv),
        }

    @classmethod
    def from_checkpoint(cls, payload: dict) -> "AmasStrategy":
        fmt = payload.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {fmt!r}; "
                             f"expected {CHECKPOINT_FORMAT!r}")
        strat = cls(alpha=payload["alpha"], beta=payload["beta"])
        strat.days_completed = payload["days_completed"]
        strat.ev_ids = list(payload["evs"])
        shape = (len(strat.ev_ids), payload["instants_per_day"])

        def load(name, scale):
            arrays = []
            for field in ("precision", "response"):
                try:
                    arrays.append(_unpack(payload[name][field], shape))
                except ValueError as exc:
                    raise ValueError(f"checkpoint field {name}.{field}: "
                                     f"{exc}") from None
            return BanditState(*arrays, float(scale))
        strat.bandit = load("bandit", strat.alpha)
        strat.pv = load("pv", strat.beta)
        return strat


def _pack(a: np.ndarray) -> str:
    """Lossless text form of a float array: base64 of zlib'd little-endian
    float64 bytes. The shape is not stored; `_unpack` is told it."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    # Level 1: the default level 6 halves the file but takes 2-3x as long.
    return base64.b64encode(zlib.compress(raw, 1)).decode("ascii")


def _unpack(text: str, shape) -> np.ndarray:
    """Inverse of `_pack`: the float64 array of the given shape, bit-exact."""
    raw = zlib.decompress(base64.b64decode(text, validate=True))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def uncontrolled_action(roster: Roster) -> np.ndarray:
    """Plug-and-charge: full power until the SoC target, blind to everything."""
    return roster.p_max * (roster.soc < roster.soc_target)


class UncontrolledStrategy(Strategy):
    """Charges at maximum power from plug-in; ignores prices and requests."""

    def decide(self, roster):
        return uncontrolled_action(roster)


class ScheduleStrategy(Strategy):
    """Replays fixed per-EV schedules (local-instant booleans).

    Once attached, the schedules are one `(n_ev, m)` boolean matrix in
    fleet order, which a roster reads at its `flat` index, `row * m + now`.
    """

    def __init__(self, schedules: dict):
        self.schedules = {ev: np.asarray(s, dtype=bool)
                          for ev, s in schedules.items()}
        self.plans = None

    def attach(self, fleet):
        self.plans = np.zeros((len(fleet.ev_ids), fleet.m), dtype=bool)
        for row, ev in enumerate(fleet.ev_ids):
            plan = self.schedules.get(ev, ())[:fleet.m]
            self.plans[row, :len(plan)] = plan

    def decide(self, roster):
        planned = self.plans.take(roster.flat)
        return roster.p_max * (planned & (roster.soc < 1.0))


# -- centralized oracle ------------------------------------------------------


def centralized_oracle(scenario: Scenario) -> dict:
    """Violation-free charging schedules under perfect PV foresight.

    EVs ordered by flexibility take their cheapest instants that keep the
    power flow within limits. Returns ev_id -> boolean array over the EV's
    local connection window.

    Every EV charges at full power at its planned instants. The base
    injections assume that each connected EV absorbs its site's PV output
    (the engine's behavior away from a full battery), so they take off
    only the PV of the sites with no EV connected. The oracle's `GridJudge`
    gives each row its verdict.
    """
    fleet = scenario.fleet
    if not fleet:
        return {}
    net, m = scenario.topology, scenario.m
    load_inj, site_pv_w = instant_tables(scenario)
    # In fleet order: each EV's bus and charger watt, and its window as
    # instants of day. EV e lives at site e.
    bus = [net.bus_index[p.bus_id] for p in fleet]
    watt = [p.p_max * 1000.0 for p in fleet]
    window = [(p.t_arrive + np.arange(p.window_length)) % m for p in fleet]
    away_pv = site_pv_w.copy()
    for s, i in enumerate(window):
        away_pv[i, s] = 0.0
    # A connected site takes off 0.0, which changes no sum.
    base = site_injections(load_inj, scenario.site_bus, away_pv)
    pv_ahead = np.array([site_pv_w[i, s].sum() for s, i in enumerate(window)])
    needs = required_instants(charging_need(fleet), scenario.delta_i,
                              pv_ahead, 0, 0).tolist()
    judge = GridJudge(net, solve_power_flow)
    # Each EV in turn, by flexibility, then id, tests its instants in price
    # order against the injections of the EVs placed before it, until
    # `need` of them pass. `inj` adds each placed EV's charger power to its
    # instant's base injections.
    inj = base.copy()
    plans = {}
    for e in sorted(range(len(fleet)),
                    key=lambda e: (len(window[e]) - needs[e], fleet[e].ev_id)):
        plan = np.zeros(len(window[e]), dtype=bool)
        got = 0
        prices = scenario.price_profile[window[e]]
        for l in np.argsort(prices, kind="stable").tolist():
            if got == needs[e]:
                break
            i = window[e][l]
            row = inj[i].copy()
            row[bus[e]] += watt[e]
            if judge.within_limits(row):
                plan[l] = True
                inj[i] = row
                got += 1
        plans[fleet[e].ev_id] = plan
    return plans
