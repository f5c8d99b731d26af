"""Charging strategies plugged into the simulation engine.

AmasStrategy is the decentralized learner (one bandit pair per EV plus the
cooperative-request protocol handled in agents). UncontrolledStrategy and
ScheduleStrategy provide the two comparison baselines; centralized_oracle
computes schedules for the latter under perfect PV knowledge.
"""
from __future__ import annotations

import base64
import heapq
import itertools
import zlib

import numpy as np

from . import agents
from .agents import EvProfile, Fleet, ev_record, required_instants
from .bandit import (REWARD_PRIOR_MEAN, BanditState, sample_parameter,
                     update_day, update_pv)
from .engine import Scenario
from .gridnet import pv_power, solve_power_flow

__all__ = [
    "Strategy",
    "AmasStrategy",
    "UncontrolledStrategy",
    "ScheduleStrategy",
    "uncontrolled_action",
    "centralized_oracle",
    "default_pv_exploration",
    "CHECKPOINT_FORMAT",
]

CHECKPOINT_FORMAT = "gridcharge.checkpoint/5"


def default_pv_exploration(pv_area: float, pv_efficiency: float) -> float:
    """Default PV exploration scale: a tenth of the rated panel power."""
    return 0.1 * pv_area * pv_efficiency * 1000.0


class Strategy:
    """Hooks the engine calls on fleet rows (arrays of EV indices into the
    `Fleet`); defaults do nothing, and feedback records."""

    def attach(self, fleet: Fleet):
        """Called once with the simulation's fleet, before any session."""

    def session_start(self, fleet: Fleet, rows, rng):
        pass

    def decide(self, fleet: Fleet, rows, delta_i) -> np.ndarray:
        raise NotImplementedError

    def feedback(self, fleet: Fleet, rows, charged, cost_norm, crits, pv_w):
        ev_record(fleet, rows, charged, cost_norm, crits, pv_w)

    def session_end(self, fleet: Fleet, rows):
        pass


class AmasStrategy(Strategy):
    """Per-EV combinatorial linear Thompson Sampling with cooperation.

    Each learner of the fleet is one `BanditState` of `(n_ev, m)` matrices,
    one row per EV in fleet order: `bandit` (reward) and `pv`. Once
    attached, both are views of one `(n_ev, 2, m)` stack, so a session
    start gathers its rows of both learners in one step.
    """

    def __init__(self, alpha=0.5, beta=360.0):
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

    def session_start(self, fleet, rows, rng):
        # One block draw, row by row, theta before phi.
        both = self._both
        sample = sample_parameter(
            BanditState(both.precision[rows], both.response[rows],
                        both.scale), rng)
        fleet.hold_samples(rows, sample[:, 0], sample[:, 1])

    def decide(self, fleet, rows, delta_i):
        return agents.ev_decide(fleet, rows, delta_i)

    def session_end(self, fleet, rows):
        update_day(self.bandit, fleet.played[rows], fleet.reward[rows], rows)
        update_pv(self.pv, fleet.pv_mask[rows], fleet.pv_obs[rows], rows)

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


def uncontrolled_action(fleet: Fleet, rows) -> np.ndarray:
    """Plug-and-charge: full power until the SoC target, blind to everything."""
    return np.where(fleet.soc[rows] < fleet.soc_target[rows],
                    fleet.p_max[rows], 0.0)


class UncontrolledStrategy(Strategy):
    """Charges at maximum power from plug-in; ignores prices and requests."""

    def decide(self, fleet, rows, delta_i):
        return uncontrolled_action(fleet, rows)


class ScheduleStrategy(Strategy):
    """Replays fixed per-EV schedules (local-instant booleans). A session's
    theta row holds its schedule: 1 at planned instants."""

    def __init__(self, schedules: dict):
        self.schedules = {ev: np.asarray(s, dtype=bool)
                          for ev, s in schedules.items()}

    def session_start(self, fleet, rows, rng):
        for idx in rows:
            plan = self.schedules.get(fleet.ev_ids[idx], ())[:fleet.m]
            fleet.theta[idx, :len(plan)] = plan

    def decide(self, fleet, rows, delta_i):
        planned = fleet.theta[rows, fleet.now[rows]] > 0.0
        return np.where(planned & (fleet.soc[rows] < 1.0),
                        fleet.p_max[rows], 0.0)


# -- centralized oracle ------------------------------------------------------


def _true_pv_local(scenario: Scenario, profile: EvProfile) -> np.ndarray:
    site = scenario.sites[scenario.ev_site[profile.ev_id]]
    i = (profile.t_arrive + np.arange(profile.window_length)) % scenario.m
    return pv_power(site.pv_area, site.pv_efficiency,
                    scenario.irradiance_profile[i])


class _FeasibilityChecker:
    """Power-flow limit check for a set of EVs charging at a day-instant.

    Base injections assume every connected EV absorbs its site's PV output
    (the engine's behavior away from a full battery). A verdict depends
    only on the injection vector, and candidates repeat vectors (flat
    household loads, no PV at night), so each distinct vector is solved
    once and its verdict kept by its bytes.
    """

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        net = scenario.topology
        m = scenario.m
        sites = scenario.sites
        site_bus = np.array([net.bus_index[s.bus_id] for s in sites],
                            dtype=np.int64)
        self.ev_bus = {p.ev_id: net.bus_index[p.bus_id]
                       for p in scenario.fleet}
        self.p_max_w = {p.ev_id: p.p_max * 1000.0 for p in scenario.fleet}
        connected = np.zeros((m, len(sites)), dtype=bool)
        for p in scenario.fleet:
            i = (p.t_arrive + np.arange(p.window_length)) % m
            connected[i, scenario.ev_site[p.ev_id]] = True
        pv = pv_power(np.array([s.pv_area for s in sites]),
                      np.array([s.pv_efficiency for s in sites]),
                      scenario.irradiance_profile[:, None])
        # One (instant, bus) entry per (instant, site) pair in site order,
        # so each bus sums its loads, then subtracts its unconnected PV, in
        # the same order as a per-instant loop.
        at = (np.repeat(np.arange(m), len(sites)), np.tile(site_bus, m))
        self.base = np.zeros((m, net.n_buses))
        np.add.at(self.base, at, scenario.site_load_profiles.T.ravel())
        away = ~connected.ravel()
        np.subtract.at(self.base, (at[0][away], at[1][away]),
                       pv.ravel()[away])
        self._verdicts = {}   # injection bytes -> within limits

    def within_limits(self, inj: np.ndarray) -> bool:
        """Whether the power flow of a bus injection vector converges with
        no line or bus criticality: every line within its rating and every
        bus within its voltage band."""
        key = inj.tobytes()
        ok = self._verdicts.get(key)
        if ok is None:
            net = self.sc.topology
            sol = solve_power_flow(net, inj)
            ok = self._verdicts[key] = bool(
                sol.converged
                and not agents.line_criticality(sol.line_currents,
                                                net.i_rated).any()
                and not agents.bus_criticality(sol.bus_voltages, net.v_min,
                                               net.v_max).any())
        return ok

    def feasible(self, i_day: int, charging_ev_ids) -> bool:
        inj = self.base[i_day].copy()
        # In id order, so the sums do not depend on set iteration order.
        for ev in sorted(charging_ev_ids):
            inj[self.ev_bus[ev]] += self.p_max_w[ev]
        return self.within_limits(inj)


def centralized_oracle(scenario: Scenario, mode="greedy",
                       max_expansions=500_000) -> dict:
    """Violation-free charging schedules under perfect PV foresight.

    "exhaustive" (fleet <= 12): best-first search over the joint per-EV
    instant subsets, returning the minimum-total-cost feasible assignment.
    "greedy": EVs ordered by flexibility take their cheapest instants that
    keep the power flow within limits.
    Returns ev_id -> boolean array over the EV's local connection window.
    """
    fleet = scenario.fleet
    if not fleet:
        return {}
    checker = _FeasibilityChecker(scenario)
    m = scenario.m

    pv_ahead = np.array([_true_pv_local(scenario, p).sum() for p in fleet])
    k = required_instants(Fleet(fleet, m), np.arange(len(fleet)),
                          scenario.delta_i, pv_ahead, 0, 0)
    needs = {p.ev_id: int(k_ev) for p, k_ev in zip(fleet, k)}
    local_price = {
        p.ev_id: scenario.price_profile[
            (p.t_arrive + np.arange(p.window_length)) % m]
        for p in fleet}

    if mode == "greedy":
        return _oracle_greedy(scenario, checker, needs, local_price)
    if mode == "exhaustive":
        if len(fleet) > 12:
            raise ValueError(
                f"exhaustive oracle limited to 12 EVs (got {len(fleet)}); "
                "use greedy mode")
        return _oracle_exhaustive(scenario, checker, needs, local_price,
                                  max_expansions)
    raise ValueError(f"unknown oracle mode {mode!r}")


def _oracle_greedy(scenario, checker, needs, local_price):
    """Each EV in turn tests its instants in price order against the
    injections of the EVs placed before it, until `need` of them pass.

    `inj` adds each placed EV's charger power to its instant's base
    injections.
    """
    m = scenario.m
    order = sorted(scenario.fleet,
                   key=lambda p: (p.window_length - needs[p.ev_id], p.ev_id))
    inj = checker.base.copy()
    schedules = {}
    for p in order:
        bus, watt = checker.ev_bus[p.ev_id], checker.p_max_w[p.ev_id]
        plan = np.zeros(p.window_length, dtype=bool)
        need, got = needs[p.ev_id], 0
        for l in np.argsort(local_price[p.ev_id], kind="stable").tolist():
            if got == need:
                break
            i = (p.t_arrive + l) % m
            row = inj[i].copy()
            row[bus] += watt
            if checker.within_limits(row):
                plan[l] = True
                inj[i] = row
                got += 1
        schedules[p.ev_id] = plan
    return schedules


def _oracle_exhaustive(scenario, checker, needs, local_price, max_expansions):
    m = scenario.m
    fleet = scenario.fleet
    per_ev = []
    for p in fleet:
        k = needs[p.ev_id]
        prices = local_price[p.ev_id]
        subsets = sorted(
            (sum(prices[list(c)]), c)
            for c in itertools.combinations(range(p.window_length), k)
        )
        per_ev.append(subsets)

    def feasible_joint(idxs):
        charging_at = {}
        for e, p in enumerate(fleet):
            for l in per_ev[e][idxs[e]][1]:
                charging_at.setdefault((p.t_arrive + l) % m, set()).add(p.ev_id)
        return all(checker.feasible(i, evs)
                   for i, evs in charging_at.items())

    start = tuple(0 for _ in fleet)
    heap = [(sum(per_ev[e][0][0] for e in range(len(fleet))), start)]
    seen = {start}
    pops = 0
    while heap:
        cost, idxs = heapq.heappop(heap)
        pops += 1
        if pops > max_expansions:
            raise RuntimeError(
                "exhaustive oracle exceeded the search budget; use greedy mode")
        if feasible_joint(idxs):
            return {p.ev_id: _plan_from(per_ev[e][idxs[e]][1],
                                        p.window_length)
                    for e, p in enumerate(fleet)}
        for e in range(len(fleet)):
            nxt = list(idxs)
            nxt[e] += 1
            if nxt[e] >= len(per_ev[e]):
                continue
            nxt = tuple(nxt)
            if nxt in seen:
                continue
            seen.add(nxt)
            delta = per_ev[e][nxt[e]][0] - per_ev[e][idxs[e]][0]
            heapq.heappush(heap, (cost + delta, nxt))
    raise RuntimeError("no violation-free joint schedule exists")


def _plan_from(instants, window):
    plan = np.zeros(window, dtype=bool)
    plan[list(instants)] = True
    return plan
