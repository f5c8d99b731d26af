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

from .agents import (CriticalityRequest, EvProfile, Fleet, bus_criticality,
                     forward_request, line_criticality,
                     sample_cooperation_targets, take_requests)
from .gridnet import (FeederSpec, NetworkTopology, build_replicated_feeder,
                      pv_power, solve_power_flow)

__all__ = [
    "EvParams",
    "ScenarioConfig",
    "Site",
    "Scenario",
    "InstantTrace",
    "SimulationResult",
    "Simulation",
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
        if t_depart == t_arrive:
            raise ScenarioError(
                "infeasible connection window: departure coincides with arrival"
            )
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


def agent_neighbors(topology: NetworkTopology) -> dict:
    """The line/bus agent graph requests flood over: lines touch their
    endpoint buses, buses touch their incident lines. It depends only on
    the topology, so a simulation builds it once."""
    neighbors = {("bus", bus.id): [] for bus in topology.buses}
    for line in topology.lines:
        ends = [("bus", line.from_bus), ("bus", line.to_bus)]
        neighbors[("line", line.id)] = ends
        for end in ends:
            neighbors[end].append(("line", line.id))
    return neighbors


def flood_requests(neighbors: dict, evs_at_bus: dict, initial):
    """Monotone same-instant flooding of criticality requests.

    `neighbors` is the line/bus graph from `agent_neighbors`; `evs_at_bus`
    maps a bus id to the EV ids attached to it, which hear what the bus
    passes on. A node re-forwards only when an incoming request strictly
    beats what it already holds, so the process quiesces within the
    agent-graph diameter. Returns the list of requests each EV received
    (in improving order) and the round count.
    """
    if not initial:
        return {}, 0

    def send(node, req, box):
        for nb in neighbors[node]:
            box.setdefault(nb, []).append(req)
        if node[0] == "bus":
            for ev in evs_at_bus.get(node[1], ()):
                box.setdefault(("ev", ev), []).append(req)

    held = {}
    ev_received = {}
    inbox = {}
    for req in initial:
        origin = (req.origin_kind, req.origin_agent)
        held[origin] = req
        send(origin, req, inbox)

    rounds = 0
    while inbox:
        rounds += 1
        outbox = {}
        for node, reqs in sorted(inbox.items()):
            best = forward_request(held.get(node), reqs)
            if best is None:
                continue
            held[node] = best
            if node[0] == "ev":
                ev_received.setdefault(node[1], []).append(best)
            else:
                send(node, best, outbox)
        inbox = outbox

    return ev_received, rounds


@dataclass
class InstantTrace:
    converged: bool
    flood_rounds: int
    requests: tuple                  # the instant's initial requests
    injections: np.ndarray           # per-bus net injection, watt
    ev_grid_kw: dict                 # ev_id -> grid power, charging EVs only


@dataclass
class SimulationResult:
    strategy: str
    days: int
    ev_ids: list
    cost: np.ndarray            # (days, n_ev) currency
    grid_energy: np.ndarray     # (days, n_ev) kWh into battery from grid
    battery_energy: np.ndarray  # (days, n_ev) kWh into battery total
    mean_reward_ev: np.ndarray  # (days, n_ev) mean recorded reward, nan if none
    final_soc: np.ndarray       # (days, n_ev)
    violations_current: np.ndarray  # (days,) instants with a current violation
    violations_voltage: np.ndarray
    traces: list | None


class Simulation:
    """Barrier-synchronized per-instant execution of one scenario.

    The fleet lives in a `Fleet` of arrays. Each instant runs one vector
    step over the plugged-in EVs: the strategy's decision, the battery/PV
    physics and the cost/energy accounts, then the power flow, sensing
    and flooding, then one feedback record.
    """

    def __init__(self, scenario: Scenario, strategy, seed=None,
                 cooperation_fraction=0.05, keep_traces=True):
        self.sc = scenario
        self.strategy = strategy
        self.coop_fraction = cooperation_fraction
        self.keep_traces = keep_traces
        self.rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed if seed is None else seed, 0x51e])
        )
        self.m = m = scenario.m
        self.delta_h = scenario.delta_i / 60.0
        self.net = scenario.topology
        self.fleet = Fleet(scenario.fleet, m)
        strategy.attach(self.fleet)
        self.ev_ids = self.fleet.ev_ids
        self._neighbors = agent_neighbors(self.net)
        self._ev_bus_id = [p.bus_id for p in scenario.fleet]
        self._bus_of_site = np.array(
            [self.net.bus_index[s.bus_id] for s in scenario.sites], dtype=np.int64
        )
        self._ev_site = np.array(
            [scenario.ev_site[p.ev_id] for p in scenario.fleet], dtype=np.int64
        )
        self._ev_bus_idx = np.array(
            [self.net.bus_index[p.bus_id] for p in scenario.fleet], dtype=np.int64
        )
        # Read-only PV watt per (instant of day, site).
        self._site_pv_w = pv_power(
            np.array([s.pv_area for s in scenario.sites]),
            np.array([s.pv_efficiency for s in scenario.sites]),
            scenario.irradiance_profile[:, None])
        self._site_pv_w.flags.writeable = False
        # The same PV as kWh per instant.
        self._site_pv_kwh = self._site_pv_w / 1000.0 * self.delta_h
        self._site_pv_kwh.flags.writeable = False
        # Read-only household-load injections per (instant of day, bus):
        # bincount adds its weights in order, so each bus sums its sites'
        # loads in site order, from 0.
        n_buses = self.net.n_buses
        cell = np.arange(m)[:, None] * n_buses + self._bus_of_site
        self._load_inj = np.bincount(
            cell.ravel(), scenario.site_load_profiles.T.ravel(),
            minlength=m * n_buses).reshape(m, n_buses)
        self._load_inj.flags.writeable = False
        # EVs plugging in, and leaving after, each instant of day.
        t_arrive = np.array([p.t_arrive for p in scenario.fleet], dtype=np.int64)
        last = (t_arrive + self.fleet.window - 1) % m
        self._arrivals = [np.flatnonzero(t_arrive == i) for i in range(m)]
        self._departures = [np.flatnonzero(last == i) for i in range(m)]
        # Plugged-in EVs by session start, then index: the order in which
        # their grid power enters the bus injections.
        self._order = np.zeros(0, dtype=np.int64)
        # Injection bytes -> (converged, line crit, bus crit, any line crit,
        # any bus crit), the arrays read-only: the grid state depends only
        # on the injections, which repeat across instants (flat household
        # loads, no PV at night, replayed schedules), so each distinct
        # vector is solved once.
        self._grid_state = {}

        D = scenario.days
        n = len(scenario.fleet)
        self.cost = np.zeros((D, n))
        self.grid_energy = np.zeros((D, n))
        self.battery_energy = np.zeros((D, n))
        self.mean_reward_ev = np.full((D, n), np.nan)
        self.final_soc = np.zeros((D, n))
        self.violations_current = np.zeros(D, dtype=np.int64)
        self.violations_voltage = np.zeros(D, dtype=np.int64)
        self.traces = [] if keep_traces else None

    # -- single instant ----------------------------------------------------

    def run_instant(self, g: int) -> InstantTrace | None:
        sc, fleet, net = self.sc, self.fleet, self.net
        dh = self.delta_h
        i_day = g % self.m
        day = g // self.m

        # Phase 0: plug-in sessions starting at this instant.
        new = self._arrivals[i_day]
        if day < sc.days and new.size:
            fleet.plug_in(new, day)
            self.strategy.session_start(fleet, new, self.rng)
            self._order = np.concatenate([self._order, new])
        rows = self._order

        # Phase 1+2: charging decisions on the pending requests, battery/PV
        # physics and the cost/energy accounts. The strategy is asked only
        # while an EV is plugged in.
        price = sc.price_profile[i_day]
        site_pv_w = self._site_pv_w[i_day]
        sites = self._ev_site[rows]
        pv_w = site_pv_w[sites]
        asked = (self.strategy.decide(fleet, rows, sc.delta_i) if rows.size
                 else np.zeros(0))
        eta = fleet.eta_chrg[rows]
        e_bat = fleet.e_bat[rows]
        headroom = np.maximum(0.0, (1.0 - fleet.soc[rows]) * e_bat)
        pv_in = np.minimum(self._site_pv_kwh[i_day][sites], headroom)
        grid_in = np.minimum(eta * asked * dh, headroom - pv_in)
        grid_kw = np.where(grid_in > 0.0, grid_in / (eta * dh), 0.0)
        stored = pv_in + grid_in
        fleet.soc[rows] += stored / e_bat
        charged = grid_kw > 1e-12
        # The (session day, EV) cells of the accounts, as flat indices.
        cells = fleet.day[rows] * len(self.ev_ids) + rows
        self.cost.reshape(-1)[cells] += price * grid_kw * dh
        self.grid_energy.reshape(-1)[cells] += grid_in
        self.battery_energy.reshape(-1)[cells] += stored

        # Phase 3: power flow with household + EV - PV injections.
        inj = self._load_inj[i_day].copy()
        np.add.at(inj, self._ev_bus_idx[rows], grid_kw * 1000.0)
        pv_export_w = site_pv_w.copy()
        pv_export_w[sites] -= pv_in / dh * 1000.0
        np.subtract.at(inj, self._bus_of_site, pv_export_w)

        # Phase 4: sensing, request creation, flooding to quiescence.
        key = inj.tobytes()
        state = self._grid_state.get(key)
        if state is None:
            sol = solve_power_flow(net, inj)
            if sol.converged:
                line_crit = line_criticality(sol.line_currents, net.i_rated)
                bus_crit = bus_criticality(sol.bus_voltages, net.v_min,
                                           net.v_max)
            else:
                # Electrical state unknown: treat every line as congested so
                # the whole fleet backs off.
                line_crit = np.ones(net.n_lines)
                bus_crit = np.zeros(net.n_buses)
            line_crit.flags.writeable = bus_crit.flags.writeable = False
            state = self._grid_state[key] = (sol.converged, line_crit,
                                             bus_crit, line_crit.any(),
                                             bus_crit.any())
        converged, line_crit, bus_crit, line_any, bus_any = state
        initial = []
        if line_any or bus_any:
            grid_charging_evs = [fleet.ev_ids[i] for i in rows[charged]]
            n_targets = max(1, math.ceil(self.coop_fraction *
                                         max(1, len(grid_charging_evs))))
            for kind, agents, crits in (("line", net.lines, line_crit),
                                        ("bus", net.buses, bus_crit)):
                for a in np.flatnonzero(crits):
                    initial.append(CriticalityRequest(
                        criticality=float(crits[a]),
                        target_evs=sample_cooperation_targets(
                            grid_charging_evs, n_targets, self.rng),
                        origin_agent=agents[a].id, origin_kind=kind,
                        instant=i_day))

        # Requests reach only the plugged-in EVs at a bus.
        evs_at_bus = {}
        if initial:
            for idx in rows.tolist():
                evs_at_bus.setdefault(self._ev_bus_id[idx], []).append(
                    fleet.ev_ids[idx])
        received, rounds = flood_requests(self._neighbors, evs_at_bus,
                                          initial)

        # Phase 5: feedback with same-instant criticalities; the requests
        # are held for the next decision.
        if rows.size:
            crits = take_requests(fleet, rows, received)
            self.strategy.feedback(fleet, rows, charged, price, crits, pv_w)

        # Violations are attributed to the global day (clipped to horizon);
        # a non-converged instant counts against both kinds.
        vday = min(day, sc.days - 1)
        if line_any:
            self.violations_current[vday] += 1
        if not converged or bus_any:
            self.violations_voltage[vday] += 1

        trace = None
        if self.keep_traces:
            trace = InstantTrace(
                converged=converged, flood_rounds=rounds,
                requests=tuple(initial), injections=inj,
                ev_grid_kw={fleet.ev_ids[i]: kw for i, kw in
                            zip(rows.tolist(), grid_kw.tolist()) if kw > 0.0})
            self.traces.append(trace)

        # Phase 6: sessions ending after this instant.
        fleet.now[rows] += 1
        ending = self._departures[i_day]
        ending = ending[fleet.active[ending]]
        if ending.size:
            self.strategy.session_end(fleet, ending)
            d, k_p = fleet.day[ending], fleet.k_p[ending]
            got = k_p > 0
            self.mean_reward_ev[d[got], ending[got]] = (
                fleet.reward[ending[got]].sum(axis=1) / k_p[got])
            self.final_soc[d, ending] = fleet.soc[ending]
            fleet.active[ending] = False
            self._order = rows[fleet.active[rows]]

        return trace

    def run(self) -> SimulationResult:
        sc = self.sc
        tail = max((p.t_arrive + p.window_length - sc.m for p in sc.fleet),
                   default=0)
        total = sc.days * sc.m + max(0, tail) if sc.days > 0 else 0
        for g in range(total):
            self.run_instant(g)
        return SimulationResult(
            strategy=type(self.strategy).__name__,
            days=sc.days,
            ev_ids=self.ev_ids,
            cost=self.cost,
            grid_energy=self.grid_energy,
            battery_energy=self.battery_energy,
            mean_reward_ev=self.mean_reward_ev,
            final_soc=self.final_soc,
            violations_current=self.violations_current,
            violations_voltage=self.violations_voltage,
            traces=self.traces,
        )


def ingest_profile(path, kind: str, m: int, c_max=None) -> np.ndarray:
    """Read a `instant,value` CSV into a length-m vector.

    Price profiles are normalized to [0, 1] by `c_max` (default: the file
    maximum). Malformed files raise ProfileError naming the line.
    """
    if kind not in ("price", "irradiance", "load"):
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
