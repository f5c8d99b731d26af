"""Discrete-time simulation engine.

Drives the per-instant pipeline over multi-day horizons: EV decisions on
the pending requests, battery/PV physics, power flow, line/bus sensing
with same-instant request flooding, then EV feedback. The fleet is held
as arrays, so each phase is one vector step over the plugged-in EVs.
Also owns scenario generation and CSV profile ingestion.

Each EV learns in its local session frame (instant 0 = plug-in), so
connection windows crossing midnight behave like any other window; one
session per day indexes the learning day d.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .agents import (CriticalityRequest, EvProfile, Fleet, Roster,
                     bus_criticality, line_criticality, request_priority,
                     sample_cooperation_targets, take_requests)
from .gridnet import (NetworkTopology, bound_below_limit,
                      build_replicated_feeder, certainly_within_limits,
                      pv_power, solve_power_flow, total_bounds)

__all__ = [
    "Scenario",
    "Simulation",
    "GridJudge",
    "AgentGraph",
    "instant_tables",
    "bus_sums",
    "site_injections",
    "charge",
    "generate_scenario",
    "agent_neighbors",
    "flood_requests",
    "ingest_profile",
    "default_price_profile",
    "default_irradiance_profile",
    "ProfileError",
    "ScenarioError",
]


# Operands of an instant's ufunc calls as 0-d arrays of the dtype of the
# arrays they meet, which spare each call the conversion of a Python
# scalar; the results are the same bits.
_ZERO, _ONE = np.zeros(()), np.ones(())
_CHARGED_KW = np.array(1e-12)       # grid power above which an EV charged
_ZERO.flags.writeable = _ONE.flags.writeable = False
_CHARGED_KW.flags.writeable = False


class ScenarioError(ValueError):
    pass


class ProfileError(ValueError):
    """Profile file failed to parse; message carries the offending line."""


class Scenario:
    """A concrete scenario: the feeder, the fleet, whose EV `ev{i}` lives
    at household site i, and per site (in the topology's device order) its
    bus index, PV panel and load profile."""
    __slots__ = ("topology", "fleet", "price_profile", "irradiance_profile",
                 "site_bus", "site_pv_area", "site_pv_efficiency",
                 "site_load_profiles", "m", "days", "seed")

    def __init__(self, topology: NetworkTopology, fleet: list,
                 price_profile: np.ndarray, irradiance_profile: np.ndarray,
                 site_bus: np.ndarray, site_pv_area: np.ndarray,
                 site_pv_efficiency: np.ndarray,
                 site_load_profiles: np.ndarray, m: int, days: int,
                 seed: int):
        for name, profile in (("price_profile", price_profile),
                              ("irradiance_profile", irradiance_profile)):
            if profile.shape != (m,):
                raise ScenarioError(f"{name} must have length m={m}")
        # The price is the EV's normalized cost, which `ev_reward` takes
        # as a plain float in [0, 1].
        if not ((0.0 <= price_profile) & (price_profile <= 1.0)).all():
            raise ScenarioError("price_profile must lie in [0, 1]")
        self.topology = topology
        self.fleet = fleet                            # EvProfile
        self.price_profile = price_profile            # normalized cost, (m,)
        self.irradiance_profile = irradiance_profile  # W/m^2, (m,)
        self.site_bus = site_bus                      # bus index, (n_sites,)
        self.site_pv_area = site_pv_area              # m^2, (n_sites,)
        self.site_pv_efficiency = site_pv_efficiency  # (n_sites,)
        self.site_load_profiles = site_load_profiles  # watt, (n_sites, m)
        self.m = m
        self.days = days
        self.seed = seed

    @property
    def delta_i(self) -> float:
        """Minutes per instant."""
        return 1440.0 / self.m


def default_price_profile(m: int) -> np.ndarray:
    """Synthetic normalized tariff: flat cheap night valley, evening peak."""
    hours = np.arange(m) * 24.0 / m
    return np.interp(hours,
                     [0.0, 6.0, 9.0, 12.0, 17.0, 19.0, 21.0, 24.0],
                     [0.2, 0.2, 0.6, 0.5, 0.6, 1.0, 0.8, 0.2])


def default_irradiance_profile(m: int, peak=800.0) -> np.ndarray:
    """Synthetic clear-sky irradiance bell centered early afternoon."""
    hours = np.arange(m) * 24.0 / m
    return peak * np.exp(-(((hours - 12.5) / 3.2) ** 2))


def _truncated_normal_hour(rng, mean, std):
    if std <= 0.0:
        return mean % 24.0
    lo, hi = mean - 2.5 * std, mean + 2.5 * std
    return float(np.clip(rng.normal(mean, std), lo, hi)) % 24.0


def generate_scenario(cfg: dict, days: int, seed: int, price=None,
                      irradiance=None) -> Scenario:
    """Deterministically expand `cfg`, a `scenario` tree of the config
    (every key given), into a concrete scenario. `price` (normalized) and
    `irradiance` (W/m^2) are length-m profiles; None stands for the
    synthetic one. EV `ev{i}` lives at household site i."""
    if days < 0:
        raise ScenarioError("days must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5ce]))
    topology = build_replicated_feeder(cfg["topology"])
    m = cfg["instants_per_day"]
    if m < 1:
        raise ScenarioError("m (instants per day) must be >= 1")

    site_bus = np.repeat(np.arange(topology.n_buses),
                         [len(bus.devices) for bus in topology.buses])
    n_sites, fleet_size = len(site_bus), cfg["fleet_size"]
    if fleet_size < 0:
        raise ScenarioError("fleet_size must be >= 0")
    if fleet_size > n_sites:
        raise ScenarioError(f"scenario.fleet_size: {fleet_size} exceeds "
                            f"{n_sites} household sites")

    price = (np.asarray(price, dtype=float) if price is not None
             else default_price_profile(m))
    irr = (np.asarray(irradiance, dtype=float) if irradiance is not None
           else default_irradiance_profile(m))
    loads = np.full((n_sites, m), cfg["household_load_w"], dtype=float)

    fleet = []
    p = cfg["ev"]
    for i in range(fleet_size):
        arr_h = _truncated_normal_hour(rng, p["arrival_mean_hour"],
                                       p["arrival_std_hour"])
        dep_h = _truncated_normal_hour(rng, p["depart_mean_hour"],
                                       p["depart_std_hour"])
        t_arrive = int(round(arr_h * m / 24.0)) % m
        dep_i = int(round(dep_h * m / 24.0)) % m
        t_depart = dep_i if dep_i > t_arrive else dep_i + m
        fleet.append(EvProfile(
            ev_id=f"ev{i}", bus_id=topology.buses[site_bus[i]].id,
            e_bat=p["e_bat_kwh"], p_max=p["p_max_kw"],
            eta_chrg=p["eta_chrg"], soc_start=p["soc_start"],
            soc_target=p["soc_target"], t_arrive=t_arrive, t_depart=t_depart,
        ))

    pv = cfg["pv"]
    return Scenario(topology=topology, fleet=fleet, price_profile=price,
                    irradiance_profile=irr, site_bus=site_bus,
                    site_pv_area=np.full(n_sites, pv["area_m2"]),
                    site_pv_efficiency=np.full(n_sites, pv["efficiency"]),
                    site_load_profiles=loads, m=m, days=days, seed=seed)


def bus_sums(n_buses: int, term_bus, terms) -> np.ndarray:
    """Per (instant, bus) sums of an (instants, terms) table, where term j
    lands on bus `term_bus[j]`. bincount adds its weights in order, from 0,
    so each bus sums its terms in column order."""
    m = len(terms)
    cell = np.arange(m)[:, None] * n_buses + np.asarray(term_bus)
    return np.bincount(cell.ravel(), np.asarray(terms).ravel(),
                       minlength=m * n_buses).reshape(m, n_buses)


def site_injections(load_inj, site_bus, site_pv_w) -> np.ndarray:
    """The injections per (instant, bus) of the sites alone: each bus's
    household loads (`load_inj`), then minus the `site_pv_w` of its sites
    in site order (`subtract.at` applies its indices in order)."""
    inj = np.array(load_inj)
    np.subtract.at(inj.T, site_bus, site_pv_w.T)
    return inj


def instant_tables(scenario: Scenario):
    """The per-instant tables every injection vector of a scenario starts
    from, the same for the simulation and the oracle.

    Returns the household-load injections per (instant of day, bus), each
    bus summing its sites' loads in site order (see `bus_sums`), and the
    PV watt per (instant of day, site); both tables are read-only.
    """
    load_inj = bus_sums(scenario.topology.n_buses, scenario.site_bus,
                        scenario.site_load_profiles.T)
    site_pv_w = pv_power(scenario.site_pv_area, scenario.site_pv_efficiency,
                         scenario.irradiance_profile[:, None])
    load_inj.flags.writeable = site_pv_w.flags.writeable = False
    return load_inj, site_pv_w


def charge(roster: Roster, asked, pv_kwh, price: float, delta_h: float,
           eta_dh):
    """One instant of battery physics for every EV of the `roster`, booked
    into its session sums; returns the PV energy each battery took (kWh)
    and its grid power (kW). The engine passes `price` and `delta_h` as 0-d
    arrays; Python floats give the same bits.

    Each battery takes its site's PV output `pv_kwh` first, then grid
    energy `grid_in` up to its charger's share of the `asked` power (kW)
    over `delta_h` hours, both capped by its free capacity. Its state of
    charge, cost (at the normalized `price`), grid and battery energy each
    grow by this instant's amount, in one add over the roster's
    `session_floats`. `eta_dh` is each EV's `eta_chrg * delta_h`.

    `grid_in` is never negative: the free capacity is clamped at 0, the PV
    share is at most the free capacity (PV is never negative), and every
    strategy asks 0 or its charger's `p_max`. So the grid power
    `grid_in / eta_dh` is exactly 0, with no guard, where no grid energy
    was drawn.
    """
    # This instant's soc, cost, grid and battery energy: the rows of
    # `session_floats`, in order.
    sums = np.empty((4, roster.size))
    grid_in, stored = sums[2], sums[3]
    headroom = np.maximum(_ZERO, (_ONE - roster.soc) * roster.e_bat)
    pv_in = np.minimum(pv_kwh, headroom)
    np.minimum(roster.eta_chrg * asked * delta_h, headroom - pv_in,
               out=grid_in)
    grid_kw = grid_in / eta_dh
    np.add(pv_in, grid_in, out=stored)
    np.divide(stored, roster.e_bat, out=sums[0])
    np.multiply(price, grid_kw, out=sums[1])
    sums[1] *= delta_h
    roster.session_floats += sums
    return pv_in, grid_kw


class GridJudge:
    """The grid state of bus injection vectors, each judged once.

    A state is (converged, line criticalities, bus criticalities, any line
    critical, any bus critical), its arrays read-only. It depends only on
    the vector, which is looked up in the memo by its bytes first: household
    loads and PV repeat per instant of day, and schedules replay. A vector
    not found there is judged and kept: one that `certainly_within_limits`
    clears shares the all-clear state, and any other is solved once by
    `solve`, the `solve_power_flow` of the caller's module, so that a
    wrapper installed under that name sees the caller's solves. A power
    flow that does not converge leaves the electrical state unknown, so
    every line is marked critical and the whole fleet backs off.
    """

    def __init__(self, net: NetworkTopology, solve):
        self.net, self._solve = net, solve
        self.states = {}
        line_ok, bus_ok = np.zeros(net.n_lines), np.zeros(net.n_buses)
        line_ok.flags.writeable = bus_ok.flags.writeable = False
        self.all_clear = (True, line_ok, bus_ok, False, False)

    def state(self, inj: np.ndarray) -> tuple:
        key = inj.tobytes()
        state = self.states.get(key)
        if state is not None:
            return state
        net = self.net
        if certainly_within_limits(net, inj):
            state = self.states[key] = self.all_clear
        else:
            sol = self._solve(net, inj)
            if sol.converged:
                line_crit = line_criticality(sol.line_currents, net.i_rated)
                bus_crit = bus_criticality(sol.bus_voltages, net.v_min,
                                           net.v_max)
            else:
                line_crit = np.ones(net.n_lines)
                bus_crit = np.zeros(net.n_buses)
            line_crit.flags.writeable = bus_crit.flags.writeable = False
            state = self.states[key] = (sol.converged, line_crit, bus_crit,
                                        line_crit.any(), bus_crit.any())
        return state

    def within_limits(self, inj: np.ndarray) -> bool:
        """Whether the power flow converges with every line within its
        rating and every bus within its voltage band."""
        converged, _, _, line_any, bus_any = self.state(inj)
        return bool(converged and not line_any and not bus_any)


class AgentGraph(namedtuple("AgentGraph", "node adjacent")):
    """The line/bus agent graph requests flood over, with integer nodes:
    `node` maps ("bus", id) and ("line", id) to a node, and `adjacent`
    holds each node's neighbours. Bus nodes come first, numbered as the
    topology's bus indices, then the lines."""
    __slots__ = ()


def agent_neighbors(topology: NetworkTopology) -> AgentGraph:
    """The agent graph of a topology: lines touch their endpoint buses,
    buses touch their incident lines. It depends only on the topology, so
    a simulation builds it once."""
    buses = [bus.id for bus in topology.buses]
    node = {("bus", bus): k for k, bus in enumerate(buses)}
    adjacent = [[] for _ in buses]
    for line in topology.lines:
        k = node["line", line.id] = len(adjacent)
        ends = (node["bus", line.from_bus], node["bus", line.to_bus])
        adjacent.append(ends)
        for end in ends:
            adjacent[end].append(k)
    return AgentGraph(node, tuple(map(tuple, adjacent)))


def flood_requests(graph: AgentGraph, roster: Roster, initial):
    """Monotone same-instant flooding of criticality requests.

    Every line and bus starts holding its own request, if any, and sends
    it to its neighbours in round 0; in each later round a node adopts the
    most critical request it received (`request_priority`; the lowest
    origin id among equals) when it strictly beats the one it holds, and
    passes it on in the next. A bus also passes each request it adopts to
    the EVs of the `roster` at it (`roster.bus`), which never relay.

    Relaying only on a strict gain makes each priority level spread as a
    breadth-first search from its origins, through the nodes that adopt
    it, so the flood runs as one pass per level, highest first: a node
    adopts a level in the first round it reaches it, unless a higher level
    reached it in that round or earlier. The flood quiesces within the
    agent-graph diameter per level.

    A bus needs no preference for line-congestion requests over bus
    requests: the line/bus graph is a bipartite tree and every request
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

    Returns the requests each EV received, by fleet row: its bus's
    adoptions in round order (so in improving order), one list that every
    EV at the bus shares. Also returns the round count: one more than the
    last round in which a node that adopted had a neighbour or an EV. One
    origin may send one request only.
    """
    if not initial:
        return {}, 0
    node, adjacent = graph.node, graph.adjacent
    occupied = set(roster.bus.tolist())
    levels = {}
    origins = set()
    for req in initial:
        origin = node[req.origin_kind, req.origin_agent]
        if origin in origins:
            raise ValueError(f"two requests from {req.origin_kind} "
                             f"{req.origin_agent!r}")
        origins.add(origin)
        levels.setdefault(request_priority(req.criticality), {})[origin] = req

    # The first round a higher level reached each node.
    higher = [math.inf] * len(adjacent)
    adopted = {}                   # bus node -> its adoptions, latest first
    last = -1
    for level in sorted(levels, reverse=True):
        holds = levels[level]      # node -> the request it adopts
        reached = dict.fromkeys(holds, 0)   # node -> the round it reached
        queue = list(holds)
        for v in queue:            # breadth first: in round order
            req, t = holds[v], reached[v]
            out = adjacent[v]
            if v in occupied:
                adopted.setdefault(v, []).append(req)
            elif not out:
                continue
            if t > last:
                last = t
            t += 1
            for u in out:
                if u not in reached:
                    reached[u] = t
                    if higher[u] > t:
                        holds[u] = req
                        queue.append(u)
                elif (reached[u] == t and u in holds
                      and req.origin_agent < holds[u].origin_agent):
                    holds[u] = req
        for v, t in reached.items():
            higher[v] = min(higher[v], t)

    for seq in adopted.values():
        seq.reverse()
    at = zip(roster.rows.tolist(), roster.bus.tolist())
    return {row: adopted[bus] for row, bus in at if bus in adopted}, last + 1


class Simulation:
    """Barrier-synchronized per-instant execution of one scenario.

    The fleet lives in a read-only `Fleet` of arrays, and the plugged-in
    EVs in a `Roster` of contiguous copies, which holds their session
    state and is rebuilt only when EVs plug in or leave. Each instant runs
    one vector step over the roster: the strategy's decision, the
    battery/PV physics and the session's cost/energy sums, then the power
    flow, sensing and flooding, then one feedback record. A session that
    ends leaves the roster at once, and `close_sessions` books it into the
    `(days, n_ev)` results later, in one batch with the others that ended
    since: before the next plug-in, or at the end of the run.
    """

    def __init__(self, scenario: Scenario, strategy, cooperation_fraction):
        self.sc = scenario
        self.strategy = strategy
        self.coop_fraction = cooperation_fraction
        self.rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, 0x51e]))
        self.m = m = scenario.m
        self.delta_h = scenario.delta_i / 60.0
        self.net = scenario.topology
        self.fleet = Fleet(
            scenario.fleet, m, site=range(len(scenario.fleet)),
            bus=[self.net.bus_index[p.bus_id] for p in scenario.fleet])
        strategy.attach(self.fleet)
        self._graph = agent_neighbors(self.net)
        # Each row's rank in the order of the EV ids, by which an instant
        # orders its grid-charging pool.
        ids = self.fleet.ev_ids
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[by_id] = range(len(ids))
        self._price = scenario.price_profile.tolist()
        # The price and Δh as the 0-d arrays `charge` takes.
        self._price_0d = [np.array(price) for price in self._price]
        self._dh_0d = np.array(self.delta_h)
        self._load_inj, self._site_pv_w = instant_tables(scenario)
        # The site PV as kWh per instant.
        self._site_pv_kwh = self._site_pv_w / 1000.0 * self.delta_h
        # What an instant with no EV plugged in injects: byte for byte its
        # bincount over `_roster_changed`'s terms without the EV terms,
        # since a - b is exactly a + -b.
        self._idle_inj = site_injections(self._load_inj, scenario.site_bus,
                                         self._site_pv_w)
        self._idle_inj.flags.writeable = False
        self._site_pv_kwh.flags.writeable = False
        # An instant's injections are its idle vector plus the grid power
        # of its EVs, and their absorbed PV taken off their sites' export,
        # both >= 0 (see `charge`). So `bound_below_limit` clears it from
        # Σ|idle| per instant of day and the roster's grid power (kW) and
        # absorbed PV (kWh per instant), summed with the weights of
        # `_ev_weights`, which take them to watt. A vector sums one load
        # entry per bus, one term per EV and one per site.
        self._idle_bound, to_bound = total_bounds(
            self.net, self._idle_inj, (self._load_inj, self._site_pv_w),
            self.net.n_buses + len(scenario.fleet) + len(scenario.site_bus))
        self._ev_weights = np.empty((2, len(scenario.fleet)))
        self._ev_weights[0] = 1000.0 * to_bound
        self._ev_weights[1] = 1000.0 / self.delta_h * to_bound
        self._load_bus = np.arange(self.net.n_buses)
        # EVs plugging in at each instant of day, and whether some window
        # ends after it.
        t_arrive = np.array([p.t_arrive for p in scenario.fleet], dtype=np.int64)
        last = (t_arrive + self.fleet.window - 1) % m
        self._arrivals = [np.flatnonzero(t_arrive == i) for i in range(m)]
        self._ends = np.isin(np.arange(m), last).tolist()
        # Plugged-in EVs by session start, then index: the order in which
        # their grid power enters the bus injections.
        self.roster = Roster(self.fleet)
        self._roster_changed()
        self.judge = GridJudge(self.net, solve_power_flow)

        D = scenario.days
        n = len(scenario.fleet)
        # What each session leaves in its (day, EV) cell, one row per row
        # of `Roster.session_floats`.
        self._session_results = np.zeros((4, D, n))
        (self.final_soc, self.cost, self.grid_energy,
         self.battery_energy) = self._session_results
        self.mean_reward_ev = np.full((D, n), np.nan)
        # The sessions that left the roster and wait for `close_sessions`:
        # per instant with leavers, the instant, their fleet rows and their
        # session sums, `k_p` and window as they left.
        self._leavers = []
        self.violations_current = np.zeros(D, dtype=np.int64)
        self.violations_voltage = np.zeros(D, dtype=np.int64)

    def _roster_changed(self):
        """Derive what an instant reads from the roster's static columns.

        An instant sums each bus's injection from its terms in this order:
        its sites' household loads (one `_load_inj` entry), the grid power
        of its plugged-in EVs in roster order, then minus the PV export of
        its sites in site order. `_inj_bus` is the bus of every term, and
        `_export_at` the term of each roster EV's site. `_grid_w` and
        `_absorbed_w` weigh the roster's grid power and absorbed PV into
        the bound `run_instant` clears an instant by.
        """
        ro = self.roster
        self._eta_dh = ro.eta_chrg * self.delta_h
        self._grid_w, self._absorbed_w = self._ev_weights[:, :ro.size]
        self._inj_bus = np.concatenate((self._load_bus, ro.bus,
                                        self.sc.site_bus))
        self._export_at = self.net.n_buses + ro.size + ro.site

    def injections(self, i_day, pv_in, grid_kw, pv_w) -> np.ndarray:
        """The bus injections of the current instant, of instant of day
        `i_day`, with EVs plugged in: `pv_in` and `grid_kw` are what
        `charge` returned for the roster and `pv_w` its sites' PV (W).

        They sum `_roster_changed`'s terms in order; bincount adds its
        weights in order, from 0. A site with an EV exports its PV less
        what the battery took, and x - pv is exactly -pv + x.
        """
        site_pv_w = self._site_pv_w[i_day]
        w = np.concatenate((self._load_inj[i_day], grid_kw * 1000.0,
                            np.negative(site_pv_w)))
        w[self._export_at] = pv_in / self.delta_h * 1000.0 - pv_w
        return np.bincount(self._inj_bus, w, minlength=self.net.n_buses)

    # -- single instant ----------------------------------------------------

    def run_instant(self, g: int) -> None:
        sc, fleet, net = self.sc, self.fleet, self.net
        i_day = g % self.m
        day = g // self.m

        # Phase 0: plug-in sessions starting at this instant, once every
        # session that ended has been booked.
        new = self._arrivals[i_day]
        if day < sc.days and new.size:
            self.close_sessions()
            fleet.plug_in(new)
            self.strategy.session_start(fleet, new, self.rng)
            self.roster.join(new)
            self._roster_changed()
        ro = self.roster

        # Phase 1+2: charging decisions on the pending requests, battery/PV
        # physics and the session's cost/energy sums. With no EV plugged
        # in, the instant skips every EV phase and injects `_idle_inj`.
        price = self._price[i_day]
        if not ro.size:
            charged, added, absorbed = np.zeros(0, dtype=bool), 0.0, 0.0
        else:
            pv_w = self._site_pv_w[i_day][ro.site]
            pv_in, grid_kw = charge(ro, self.strategy.decide(ro),
                                    self._site_pv_kwh[i_day][ro.site],
                                    self._price_0d[i_day], self._dh_0d,
                                    self._eta_dh)
            charged = grid_kw > _CHARGED_KW
            added = grid_kw.dot(self._grid_w)
            absorbed = pv_in.dot(self._absorbed_w)

        # Phase 3: the grid state of the instant's injections. An instant
        # whose power totals clear it gets the all-clear state, which the
        # judge would give its vector, and builds no vector.
        judge = self.judge
        if bound_below_limit(net, self._idle_bound[i_day], added, absorbed):
            state = judge.all_clear
        elif ro.size:
            state = judge.state(self.injections(i_day, pv_in, grid_kw, pv_w))
        else:
            state = judge.state(self._idle_inj[i_day])
        converged, line_crit, bus_crit, line_any, bus_any = state

        # Phase 4: sensing, request creation, flooding to quiescence.
        initial = []
        if line_any or bus_any:
            pool = ro.rows[charged]
            pool = pool[np.argsort(self._id_rank[pool])]
            n_targets = max(1, math.ceil(self.coop_fraction *
                                         max(1, len(pool))))
            for kind, agents, crits in (("line", net.lines, line_crit),
                                        ("bus", net.buses, bus_crit)):
                for a in np.flatnonzero(crits):
                    initial.append(CriticalityRequest(
                        criticality=float(crits[a]),
                        target_rows=sample_cooperation_targets(
                            pool, n_targets, self.rng),
                        origin_agent=agents[a].id, origin_kind=kind))

        # Requests reach only the plugged-in EVs at a bus. With none, the
        # flood would do nothing.
        received = (flood_requests(self._graph, ro, initial)[0] if initial
                    else {})

        # Violations are attributed to the global day (clipped to horizon);
        # a non-converged instant counts against both kinds.
        vday = min(day, sc.days - 1)
        if line_any:
            self.violations_current[vday] += 1
        if not converged or bus_any:
            self.violations_voltage[vday] += 1
        if not ro.size:
            return

        # Phase 5: feedback with same-instant criticalities; the requests
        # are held for the next decision.
        top = take_requests(ro, received)
        self.strategy.feedback(ro, charged, price, top, pv_w)

        # Phase 6: sessions ending after this instant leave the roster,
        # with what `close_sessions` books.
        ro.advance()
        if self._ends[i_day] and (leave := ro.now == ro.window).any():
            self._leavers.append((g, ro.rows[leave],
                                  ro.session_floats.compress(leave, axis=1),
                                  ro.k_p[leave], ro.window[leave]))
            ro.keep(~leave)
            self._roster_changed()

    def close_sessions(self) -> None:
        """Book every session that left the roster since the last call: its
        sums and final SoC into the results, its mean reward, and one
        `strategy.session_end` over the rows of them all.

        A session that left after instant g with a window of w instants
        started on day (g + 1 - w) // m. Booking them late, and together,
        books the same bits as one booking per instant: `run_instant` calls
        this before any EV plugs in, so each row is in the batch once; each
        result cell and learner update is elementwise per row; and the
        rows' rewards and the strategy's session tables stay as the
        sessions left them until the EV plugs in again.
        """
        if not self._leavers:
            return
        ends, rows, sums, k_p, window = zip(*self._leavers)
        self._leavers.clear()
        rows, k_p = np.concatenate(rows), np.concatenate(k_p)
        d = (np.repeat(ends, list(map(len, window))) + 1
             - np.concatenate(window)) // self.m
        self._session_results[:, d, rows] = np.concatenate(sums, axis=1)
        self.strategy.session_end(self.fleet, rows)
        got = k_p > 0
        self.mean_reward_ev[d[got], rows[got]] = (
            self.fleet.reward[rows[got]].sum(axis=1) / k_p[got])

    def run(self) -> "Simulation":
        """Run every instant of the scenario, then close the sessions still
        pending; returns the simulation, whose `(days, n_ev)` results
        (`cost`, `grid_energy`, `battery_energy`, `mean_reward_ev`,
        `final_soc`) and per-day `violations_current` and
        `violations_voltage` are then complete. `run_instant` alone may
        leave ended sessions pending: call `close_sessions` before reading
        the results or the strategy's learners."""
        sc = self.sc
        tail = max((p.t_arrive + p.window_length - sc.m for p in sc.fleet),
                   default=0)
        total = sc.days * sc.m + max(0, tail) if sc.days > 0 else 0
        for g in range(total):
            self.run_instant(g)
        self.close_sessions()
        return self


def ingest_profile(path, kind: str, m: int, c_max=None) -> np.ndarray:
    """Read a `instant,value` CSV into a length-m vector.

    Price profiles are normalized to [0, 1] by `c_max` (default: the file
    maximum), and a price above `c_max` is rejected. Malformed files raise
    ProfileError naming the line.
    """
    # Imported here, by its one user, so that a run without a profile file
    # never loads it.
    import csv

    if kind not in ("price", "irradiance"):
        raise ValueError(f"unknown profile kind {kind!r}")
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["instant", "value"]:
            raise ProfileError(
                f"{path} line 1: expected header 'instant,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ProfileError(
                    f"{path} line {lineno}: expected 2 columns, found {len(row)}")
            try:
                idx = int(row[0])
                val = float(row[1])
            except ValueError:
                raise ProfileError(
                    f"{path} line {lineno}: non-numeric entry {row!r}") from None
            if idx != lineno - 2:
                raise ProfileError(
                    f"{path} line {lineno}: expected instant {lineno - 2}, got {idx}")
            if not math.isfinite(val):
                raise ProfileError(
                    f"{path} line {lineno}: non-finite value {row[1]!r}")
            if val < 0.0:
                raise ProfileError(
                    f"{path} line {lineno}: negative value {val}")
            if kind == "price" and c_max is not None and val > c_max:
                raise ProfileError(f"{path} line {lineno}: price {val} "
                                   f"exceeds the configured maximum {c_max}")
            values.append(val)
    if len(values) != m:
        raise ProfileError(
            f"{path}: expected {m} rows, found {len(values)}")
    vec = np.array(values)
    if kind == "price":
        top = float(vec.max()) if c_max is None else float(c_max)
        if top <= 0.0:
            raise ProfileError(f"{path}: price normalization max must be > 0")
        vec = vec / top
    return vec
