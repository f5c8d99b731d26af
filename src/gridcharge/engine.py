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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .agents import (CriticalityRequest, EvProfile, Fleet, Roster,
                     bus_criticality, line_criticality, request_priority,
                     sample_cooperation_targets, take_requests)
from .gridnet import (FeederSpec, NetworkTopology, build_replicated_feeder,
                      certainly_within_limits, pv_power, solve_power_flow)

__all__ = [
    "EvParams",
    "ScenarioConfig",
    "Site",
    "Scenario",
    "SimulationResult",
    "Simulation",
    "GridJudge",
    "AgentGraph",
    "instant_tables",
    "bus_sums",
    "generate_scenario",
    "agent_neighbors",
    "flood_requests",
    "ingest_profile",
    "default_price_profile",
    "default_irradiance_profile",
    "ProfileError",
    "ScenarioError",
]


class ScenarioError(ValueError):
    pass


class ProfileError(ValueError):
    """Profile file failed to parse; message carries the offending line."""


@dataclass(frozen=True)
class EvParams:
    e_bat_kwh: float = 52.0
    p_max_kw: float = 7.0
    eta_chrg: float = 0.95
    soc_start: float = 0.5
    soc_target: float = 0.8
    arrival_mean_hour: float = 17.5
    arrival_std_hour: float = 1.0
    depart_mean_hour: float = 8.0
    depart_std_hour: float = 0.75


@dataclass(frozen=True)
class ScenarioConfig:
    feeder: FeederSpec = FeederSpec()
    fleet_size: int = 55
    ev: EvParams = EvParams()
    pv_area_m2: float = 20.0
    pv_efficiency: float = 0.18
    household_load_w: float = 300.0
    m: int = 96
    price_profile: np.ndarray | None = None        # normalized, length m
    irradiance_profile: np.ndarray | None = None   # W/m^2, length m


@dataclass(frozen=True)
class Site:
    site_id: str
    bus_id: str
    pv_area: float
    pv_efficiency: float


@dataclass
class Scenario:
    topology: NetworkTopology
    sites: list
    fleet: list                      # EvProfile
    ev_site: dict                    # ev_id -> site index
    price_profile: np.ndarray        # normalized cost, length m
    irradiance_profile: np.ndarray   # W/m^2, length m
    site_load_profiles: np.ndarray   # watt, (n_sites, m)
    m: int
    delta_i: float                   # minutes per instant
    days: int
    seed: int

    def __post_init__(self):
        if abs(self.m * self.delta_i - 1440.0) > 1e-9:
            raise ScenarioError("m * delta_i must equal 1440 minutes")
        for name in ("price_profile", "irradiance_profile"):
            if getattr(self, name).shape != (self.m,):
                raise ScenarioError(f"{name} must have length m={self.m}")
        # The price is the EV's normalized cost, which `ev_reward` takes
        # as a plain float in [0, 1].
        if not ((0.0 <= self.price_profile)
                & (self.price_profile <= 1.0)).all():
            raise ScenarioError("price_profile must lie in [0, 1]")


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


def generate_scenario(cfg: ScenarioConfig, days: int, seed: int) -> Scenario:
    """Deterministically expand a config into a concrete scenario."""
    if days < 0:
        raise ScenarioError("days must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5ce]))
    topology = build_replicated_feeder(cfg.feeder)
    m = cfg.m
    if m < 1:
        raise ScenarioError("m (instants per day) must be >= 1")
    delta_i = 1440.0 / m

    sites = []
    for bus in topology.buses:
        for dev in bus.devices:
            sites.append(Site(site_id=dev, bus_id=bus.id,
                              pv_area=cfg.pv_area_m2,
                              pv_efficiency=cfg.pv_efficiency))
    if cfg.fleet_size < 0:
        raise ScenarioError("fleet_size must be >= 0")
    if cfg.fleet_size > len(sites):
        raise ScenarioError(
            f"fleet_size {cfg.fleet_size} exceeds {len(sites)} household sites"
        )

    price = (np.asarray(cfg.price_profile, dtype=float)
             if cfg.price_profile is not None else default_price_profile(m))
    irr = (np.asarray(cfg.irradiance_profile, dtype=float)
           if cfg.irradiance_profile is not None
           else default_irradiance_profile(m))
    loads = np.full((len(sites), m), cfg.household_load_w, dtype=float)

    fleet = []
    ev_site = {}
    p = cfg.ev
    for i in range(cfg.fleet_size):
        arr_h = _truncated_normal_hour(rng, p.arrival_mean_hour, p.arrival_std_hour)
        dep_h = _truncated_normal_hour(rng, p.depart_mean_hour, p.depart_std_hour)
        t_arrive = int(round(arr_h * m / 24.0)) % m
        dep_i = int(round(dep_h * m / 24.0)) % m
        t_depart = dep_i if dep_i > t_arrive else dep_i + m
        ev_id = f"ev{i}"
        fleet.append(EvProfile(
            ev_id=ev_id, bus_id=sites[i].bus_id,
            e_bat=p.e_bat_kwh, p_max=p.p_max_kw, eta_chrg=p.eta_chrg,
            soc_start=p.soc_start, soc_target=p.soc_target,
            t_arrive=t_arrive, t_depart=t_depart,
        ))
        ev_site[ev_id] = i

    return Scenario(topology=topology, sites=sites, fleet=fleet,
                    ev_site=ev_site, price_profile=price,
                    irradiance_profile=irr, site_load_profiles=loads,
                    m=m, delta_i=delta_i, days=days, seed=seed)


def bus_sums(n_buses: int, term_bus, terms) -> np.ndarray:
    """Per (instant, bus) sums of an (instants, terms) table, where term j
    lands on bus `term_bus[j]`. bincount adds its weights in order, from 0,
    so each bus sums its terms in column order."""
    m = len(terms)
    cell = np.arange(m)[:, None] * n_buses + np.asarray(term_bus)
    return np.bincount(cell.ravel(), np.asarray(terms).ravel(),
                       minlength=m * n_buses).reshape(m, n_buses)


def instant_tables(scenario: Scenario):
    """The per-instant tables every injection vector of a scenario starts
    from, the same for the simulation and the oracle.

    Returns the bus of each site, the household-load injections per
    (instant of day, bus), each bus summing its sites' loads in site order
    (see `bus_sums`), and the PV watt per (instant of day, site); both
    tables are read-only.
    """
    net, sites = scenario.topology, scenario.sites
    site_bus = np.array([net.bus_index[s.bus_id] for s in sites],
                        dtype=np.int64)
    load_inj = bus_sums(net.n_buses, site_bus, scenario.site_load_profiles.T)
    site_pv_w = pv_power(np.array([s.pv_area for s in sites]),
                         np.array([s.pv_efficiency for s in sites]),
                         scenario.irradiance_profile[:, None])
    load_inj.flags.writeable = site_pv_w.flags.writeable = False
    return site_bus, load_inj, site_pv_w


class GridJudge:
    """The grid state of bus injection vectors, each judged once.

    A state is (converged, line criticalities, bus criticalities, any line
    critical, any bus critical), its arrays read-only, kept by the
    vector's bytes. It depends only on the vector, and vectors repeat:
    household loads and PV repeat per instant of day, and schedules
    replay. A vector that `certainly_within_limits` clears shares one
    all-clear state and is not solved; any other is solved once by
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
        key, net = inj.tobytes(), self.net
        state = self.states.get(key)
        if state is None and certainly_within_limits(net, inj):
            state = self.states[key] = self.all_clear
        if state is None:
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


@dataclass(frozen=True)
class AgentGraph:
    """The line/bus agent graph requests flood over, with integer nodes:
    `node` maps ("bus", id) and ("line", id) to a node, `adjacent` holds
    each node's neighbours and `bus_id` each node's bus id (None for a
    line)."""
    node: dict
    adjacent: tuple
    bus_id: tuple


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
    return AgentGraph(node, tuple(map(tuple, adjacent)),
                      tuple(buses) + (None,) * len(topology.lines))


def flood_requests(graph: AgentGraph, evs_at_bus: dict, initial):
    """Monotone same-instant flooding of criticality requests.

    Every line and bus starts holding its own request, if any, and sends
    it to its neighbours in round 0; in each later round a node adopts the
    most critical request it received (`request_priority`; the lowest
    origin id among equals) when it strictly beats the one it holds, and
    passes it on in the next. A bus also passes each request it adopts to
    the EVs `evs_at_bus` lists at it, which never relay.

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

    Returns the requests each EV received, its bus's adoptions in round
    order (so in improving order), and the round count: one more than the
    last round in which a node that adopted had a neighbour or an EV. One
    origin may send one request only.
    """
    if not initial:
        return {}, 0
    node, adjacent, bus_id = graph.node, graph.adjacent, graph.bus_id
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
            out, evs = adjacent[v], evs_at_bus.get(bus_id[v])
            if evs:
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

    received = {}
    for v, seq in adopted.items():
        seq.reverse()
        for ev in evs_at_bus[bus_id[v]]:
            received[ev] = seq.copy()
    return received, last + 1


@dataclass
class SimulationResult:
    days: int
    ev_ids: list
    cost: np.ndarray            # (days, n_ev) currency
    grid_energy: np.ndarray     # (days, n_ev) kWh into battery from grid
    battery_energy: np.ndarray  # (days, n_ev) kWh into battery total
    mean_reward_ev: np.ndarray  # (days, n_ev) mean recorded reward, nan if none
    final_soc: np.ndarray       # (days, n_ev)
    violations_current: np.ndarray  # (days,) instants with a current violation
    violations_voltage: np.ndarray


class Simulation:
    """Barrier-synchronized per-instant execution of one scenario.

    The fleet lives in a `Fleet` of arrays, and the plugged-in EVs in a
    `Roster` of contiguous copies that is rebuilt only when EVs plug in or
    leave. Each instant runs one vector step over the roster: the
    strategy's decision, the battery/PV physics and the session's
    cost/energy sums, then the power flow, sensing and flooding, then one
    feedback record. A session's sums and final SoC reach the `(days,
    n_ev)` results when it ends.
    """

    def __init__(self, scenario: Scenario, strategy,
                 cooperation_fraction=0.05):
        self.sc = scenario
        self.strategy = strategy
        self.coop_fraction = cooperation_fraction
        self.rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, 0x51e]))
        self.m = m = scenario.m
        self.delta_h = scenario.delta_i / 60.0
        self.net = scenario.topology
        self.fleet = Fleet(
            scenario.fleet, m, delta_i=scenario.delta_i,
            site=[scenario.ev_site[p.ev_id] for p in scenario.fleet],
            bus=[self.net.bus_index[p.bus_id] for p in scenario.fleet])
        strategy.attach(self.fleet)
        self.ev_ids = self.fleet.ev_ids
        self._graph = agent_neighbors(self.net)
        self._ev_bus_id = [p.bus_id for p in scenario.fleet]
        self._bus_of_site, self._load_inj, self._site_pv_w = (
            instant_tables(scenario))
        # The site PV as kWh per instant.
        self._site_pv_kwh = self._site_pv_w / 1000.0 * self.delta_h
        self._site_pv_kwh.flags.writeable = False
        self._load_bus = np.arange(self.net.n_buses)
        # EVs plugging in, and leaving after, each instant of day.
        t_arrive = np.array([p.t_arrive for p in scenario.fleet], dtype=np.int64)
        last = (t_arrive + self.fleet.window - 1) % m
        self._arrivals = [np.flatnonzero(t_arrive == i) for i in range(m)]
        self._departures = [np.flatnonzero(last == i) for i in range(m)]
        # Plugged-in EVs by session start, then index: the order in which
        # their grid power enters the bus injections.
        self.roster = Roster(self.fleet)
        self._roster_changed()
        self.judge = GridJudge(self.net, solve_power_flow)

        D = scenario.days
        n = len(scenario.fleet)
        # What each session leaves in its (day, EV) cell, one row per row
        # of `Fleet.session_floats`.
        self._session_results = np.zeros((4, D, n))
        (self.final_soc, self.cost, self.grid_energy,
         self.battery_energy) = self._session_results
        self.mean_reward_ev = np.full((D, n), np.nan)
        self.violations_current = np.zeros(D, dtype=np.int64)
        self.violations_voltage = np.zeros(D, dtype=np.int64)

    def _roster_changed(self):
        """Derive what an instant reads from the roster's static columns.

        An instant sums each bus's injection from its terms in this order:
        its sites' household loads (one `_load_inj` entry), the grid power
        of its plugged-in EVs in roster order, then minus the PV export of
        its sites in site order. `_inj_bus` is the bus of every term.
        """
        self._eta_dh = self.roster.eta_chrg * self.delta_h
        self._inj_bus = np.concatenate((self._load_bus, self.roster.bus,
                                        self._bus_of_site))

    # -- single instant ----------------------------------------------------

    def run_instant(self, g: int) -> None:
        sc, fleet, net = self.sc, self.fleet, self.net
        dh = self.delta_h
        i_day = g % self.m
        day = g // self.m

        # Phase 0: plug-in sessions starting at this instant.
        new = self._arrivals[i_day]
        if day < sc.days and new.size:
            fleet.plug_in(new, day)
            self.strategy.session_start(fleet, new, self.rng)
            self.roster.join(new)
            self._roster_changed()
        ro = self.roster

        # Phase 1+2: charging decisions on the pending requests, battery/PV
        # physics and the session's cost/energy sums. The strategy is
        # asked only while an EV is plugged in.
        price = sc.price_profile[i_day]
        site_pv_w = self._site_pv_w[i_day]
        pv_w = site_pv_w[ro.site]
        asked = self.strategy.decide(ro) if ro.size else np.zeros(0)
        headroom = np.maximum(0.0, (1.0 - ro.soc) * ro.e_bat)
        pv_in = np.minimum(self._site_pv_kwh[i_day][ro.site], headroom)
        grid_in = np.minimum(ro.eta_chrg * asked * dh, headroom - pv_in)
        grid_kw = np.where(grid_in > 0.0, grid_in / self._eta_dh, 0.0)
        stored = pv_in + grid_in
        ro.soc += stored / ro.e_bat
        charged = grid_kw > 1e-12
        ro.cost += price * grid_kw * dh
        ro.grid_energy += grid_in
        ro.battery_energy += stored

        # Phase 3: power flow with household + EV - PV injections, summed
        # term by term in the order `_roster_changed` gives; bincount adds
        # its weights in order, from 0, and -(a - b) is exactly -a + b.
        minus_export_w = np.negative(site_pv_w)
        minus_export_w[ro.site] += pv_in / dh * 1000.0
        inj = np.bincount(self._inj_bus,
                          np.concatenate((self._load_inj[i_day],
                                          grid_kw * 1000.0, minus_export_w)),
                          minlength=net.n_buses)

        # Phase 4: sensing, request creation, flooding to quiescence.
        converged, line_crit, bus_crit, line_any, bus_any = (
            self.judge.state(inj))
        initial = []
        if line_any or bus_any:
            grid_charging_evs = [fleet.ev_ids[i] for i in ro.rows[charged]]
            n_targets = max(1, math.ceil(self.coop_fraction *
                                         max(1, len(grid_charging_evs))))
            for kind, agents, crits in (("line", net.lines, line_crit),
                                        ("bus", net.buses, bus_crit)):
                for a in np.flatnonzero(crits):
                    initial.append(CriticalityRequest(
                        criticality=float(crits[a]),
                        target_evs=sample_cooperation_targets(
                            grid_charging_evs, n_targets, self.rng),
                        origin_agent=agents[a].id, origin_kind=kind))

        # Requests reach only the plugged-in EVs at a bus.
        evs_at_bus = {}
        if initial:
            for idx in ro.rows.tolist():
                evs_at_bus.setdefault(self._ev_bus_id[idx], []).append(
                    fleet.ev_ids[idx])
        received, _ = flood_requests(self._graph, evs_at_bus, initial)

        # Phase 5: feedback with same-instant criticalities; the requests
        # are held for the next decision.
        if ro.size:
            crits = take_requests(ro, received)
            self.strategy.feedback(ro, charged, price, crits, pv_w)

        # Violations are attributed to the global day (clipped to horizon);
        # a non-converged instant counts against both kinds.
        vday = min(day, sc.days - 1)
        if line_any:
            self.violations_current[vday] += 1
        if not converged or bus_any:
            self.violations_voltage[vday] += 1

        # Phase 6: sessions ending after this instant.
        ro.advance()
        ending = self._departures[i_day]
        ending = ending[fleet.active[ending]]
        if ending.size:
            fleet.active[ending] = False
            ro.keep(fleet.active[ro.rows])
            self._roster_changed()
            self.strategy.session_end(fleet, ending)
            d, k_p = fleet.day[ending], fleet.k_p[ending]
            got = k_p > 0
            self.mean_reward_ev[d[got], ending[got]] = (
                fleet.reward[ending[got]].sum(axis=1) / k_p[got])
            self._session_results[:, d, ending] = (
                fleet.session_floats[:, ending])

    def run(self) -> SimulationResult:
        sc = self.sc
        tail = max((p.t_arrive + p.window_length - sc.m for p in sc.fleet),
                   default=0)
        total = sc.days * sc.m + max(0, tail) if sc.days > 0 else 0
        for g in range(total):
            self.run_instant(g)
        return SimulationResult(
            days=sc.days,
            ev_ids=self.ev_ids,
            cost=self.cost,
            grid_energy=self.grid_energy,
            battery_energy=self.battery_energy,
            mean_reward_ev=self.mean_reward_ev,
            final_soc=self.final_soc,
            violations_current=self.violations_current,
            violations_voltage=self.violations_voltage,
        )


def ingest_profile(path, kind: str, m: int, c_max=None) -> np.ndarray:
    """Read a `instant,value` CSV into a length-m vector.

    Price profiles are normalized to [0, 1] by `c_max` (default: the file
    maximum). Malformed files raise ProfileError naming the line.
    """
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
            if val < 0.0:
                raise ProfileError(
                    f"{path} line {lineno}: negative value {val}")
            values.append(val)
    if len(values) != m:
        raise ProfileError(
            f"{path}: expected {m} rows, found {len(values)}")
    vec = np.array(values)
    if kind == "price":
        top = float(vec.max()) if c_max is None else float(c_max)
        if top <= 0.0:
            raise ProfileError(f"{path}: price normalization max must be > 0")
        if float(vec.max()) > top + 1e-12:
            raise ProfileError(
                f"{path}: price exceeds configured maximum {top}")
        vec = vec / top
    return vec
