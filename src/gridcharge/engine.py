"""Discrete-time simulation engine.

Drives the per-instant pipeline over multi-day horizons: deliver pending
requests, EV decisions, power flow, line/bus sensing with same-instant
request flooding, then EV feedback. Also owns scenario generation and
CSV profile ingestion.

Each EV learns in its local session frame (instant 0 = plug-in), so
connection windows crossing midnight behave like any other window; one
session per day indexes the learning day d.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .agents import (CriticalityRequest, EvProfile, EvState,
                     bus_criticality, forward_request, line_criticality,
                     sample_cooperation_targets)
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


def flood_requests(topology: NetworkTopology, ev_bus: dict, initial):
    """Monotone same-instant flooding of criticality requests.

    Neighborhoods follow the physical graph: lines touch their endpoint
    buses, buses touch incident lines and attached EVs. A node re-forwards
    only when an incoming request strictly beats what it already holds, so
    the process quiesces within the agent-graph diameter. Returns the list
    of requests each EV received (in improving order) and the round count.
    """
    if not initial:
        return {}, 0
    neighbors = {}
    for li, line in enumerate(topology.lines):
        node = ("line", line.id)
        neighbors[node] = [("bus", line.from_bus), ("bus", line.to_bus)]
    for bus in topology.buses:
        neighbors[("bus", bus.id)] = []
    for li, line in enumerate(topology.lines):
        neighbors[("bus", line.from_bus)].append(("line", line.id))
        neighbors[("bus", line.to_bus)].append(("line", line.id))
    for ev_id, bus_id in ev_bus.items():
        neighbors[("bus", bus_id)].append(("ev", ev_id))
        neighbors[("ev", ev_id)] = [("bus", bus_id)]

    held = {}
    ev_received = {}
    inbox = {}
    for req in initial:
        origin = (req.origin_kind, req.origin_agent)
        held[origin] = req
        for nb in neighbors[origin]:
            inbox.setdefault(nb, []).append(req)

    rounds = 0
    while inbox:
        rounds += 1
        outbox = {}
        for node, reqs in sorted(inbox.items()):
            best = forward_request(node[0], held.get(node), reqs)
            if best is None:
                continue
            held[node] = best
            if node[0] == "ev":
                ev_received.setdefault(node[1], []).append(best)
            else:
                for nb in neighbors[node]:
                    outbox.setdefault(nb, []).append(best)
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
    """Barrier-synchronized per-instant execution of one scenario."""

    def __init__(self, scenario: Scenario, strategy, seed=None,
                 cooperation_fraction=0.05, keep_traces=True):
        self.sc = scenario
        self.strategy = strategy
        self.coop_fraction = cooperation_fraction
        self.keep_traces = keep_traces
        self.rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed if seed is None else seed, 0x51e])
        )
        self.m = scenario.m
        self.delta_h = scenario.delta_i / 60.0
        self.net = scenario.topology
        n = len(scenario.fleet)
        self.ev_ids = [p.ev_id for p in scenario.fleet]
        self.ev_bus = {p.ev_id: p.bus_id for p in scenario.fleet}
        self._bus_of_site = np.array(
            [self.net.bus_index[s.bus_id] for s in scenario.sites], dtype=np.int64
        )
        self._ev_site = np.array(
            [scenario.ev_site[p.ev_id] for p in scenario.fleet], dtype=np.int64
        )
        self._ev_bus_idx = np.array(
            [self.net.bus_index[p.bus_id] for p in scenario.fleet], dtype=np.int64
        )

        D = scenario.days
        self.cost = np.zeros((D, n))
        self.grid_energy = np.zeros((D, n))
        self.battery_energy = np.zeros((D, n))
        self.mean_reward_ev = np.full((D, n), np.nan)
        self.final_soc = np.zeros((D, n))
        self.violations_current = np.zeros(D, dtype=np.int64)
        self.violations_voltage = np.zeros(D, dtype=np.int64)
        self.traces = [] if keep_traces else None

        self._active = {}    # ev index -> (session_day, local_now, EvState)
        self._pending = {i: [] for i in range(n)}
        self._site_pv_w = {}  # instant of day -> read-only PV watt per site

    # -- single instant ----------------------------------------------------

    def run_instant(self, g: int) -> InstantTrace | None:
        sc = self.sc
        m, dh = self.m, self.delta_h
        i_day = g % m
        day = g // m

        # Phase 0: plug-in sessions starting at this instant.
        for idx, prof in enumerate(sc.fleet):
            if i_day == prof.t_arrive and day < sc.days:
                st = EvState(soc=prof.soc_start, m=m)
                self.strategy.session_start(prof, st, self.rng)
                self._active[idx] = [day, 0, st]
                self._pending[idx] = []

        price = sc.price_profile[i_day]
        site_pv_w = self._site_pv_w.get(i_day)
        if site_pv_w is None:
            irr = sc.irradiance_profile[i_day]
            site_pv_w = np.array([pv_power(s.pv_area, s.pv_efficiency, irr)
                                  for s in sc.sites])
            site_pv_w.flags.writeable = False
            self._site_pv_w[i_day] = site_pv_w

        # Phase 1+2: deliver pending requests, take charging decisions.
        grid_kw = {}
        charged = {}
        pv_batt_kwh = {}
        for idx in sorted(self._active):
            prof = sc.fleet[idx]
            day_d, now, st = self._active[idx]
            asked = self.strategy.decide(prof, st, now, self._pending[idx],
                                         sc.delta_i)
            headroom = max(0.0, (1.0 - st.soc) * prof.e_bat)
            pv_kw = site_pv_w[self._ev_site[idx]] / 1000.0
            pv_in = min(pv_kw * dh, headroom)
            grid_in = min(prof.eta_chrg * asked * dh, headroom - pv_in)
            eff_kw = grid_in / (prof.eta_chrg * dh) if grid_in > 0.0 else 0.0
            st.soc += (pv_in + grid_in) / prof.e_bat
            grid_kw[idx] = eff_kw
            charged[idx] = eff_kw > 1e-12
            pv_batt_kwh[idx] = pv_in
            self.cost[day_d, idx] += price * eff_kw * dh
            self.grid_energy[day_d, idx] += grid_in
            self.battery_energy[day_d, idx] += pv_in + grid_in

        # Phase 3: power flow with household + EV - PV injections.
        inj = np.zeros(self.net.n_buses)
        np.add.at(inj, self._bus_of_site, sc.site_load_profiles[:, i_day])
        pv_export_w = site_pv_w.copy()
        for idx in self._active:
            site = self._ev_site[idx]
            pv_export_w[site] -= pv_batt_kwh[idx] / dh * 1000.0
            inj[self._ev_bus_idx[idx]] += grid_kw[idx] * 1000.0
        np.subtract.at(inj, self._bus_of_site, pv_export_w)
        sol = solve_power_flow(self.net, inj)

        # Phase 4: sensing, request creation, flooding to quiescence.
        grid_charging_evs = [sc.fleet[i].ev_id for i in sorted(self._active)
                             if charged[i]]
        n_targets = max(1, math.ceil(self.coop_fraction *
                                     max(1, len(grid_charging_evs))))
        if sol.converged:
            line_crit = [line_criticality(c, r) for c, r in
                         zip(sol.line_currents, self.net.i_rated)]
            bus_crit = [bus_criticality(v, b.v_min, b.v_max) for v, b in
                        zip(sol.bus_voltages, self.net.buses)]
        else:
            # Electrical state unknown: treat every line as congested so the
            # whole fleet backs off.
            line_crit = [1.0] * self.net.n_lines
            bus_crit = [0.0] * self.net.n_buses
        initial = []
        for kind, agents, crits in (("line", self.net.lines, line_crit),
                                    ("bus", self.net.buses, bus_crit)):
            for agent, cr in zip(agents, crits):
                if cr != 0.0:
                    initial.append(CriticalityRequest(
                        criticality=cr,
                        target_evs=sample_cooperation_targets(
                            grid_charging_evs, n_targets, self.rng),
                        origin_agent=agent.id, origin_kind=kind,
                        instant=i_day))

        received, rounds = flood_requests(self.net, self.ev_bus, initial)

        # Phase 5: feedback with same-instant criticalities.
        for idx in sorted(self._active):
            prof = sc.fleet[idx]
            day_d, now, st = self._active[idx]
            reqs = received.get(prof.ev_id, [])
            crits = [r.criticality for r in reqs]
            self.strategy.feedback(prof, st, now, charged[idx], price, crits,
                                   site_pv_w[self._ev_site[idx]])
            self._pending[idx] = reqs

        # Violations are attributed to the global day (clipped to horizon);
        # a non-converged instant counts against both kinds.
        vday = min(day, sc.days - 1)
        if any(line_crit):
            self.violations_current[vday] += 1
        if not sol.converged or any(bus_crit):
            self.violations_voltage[vday] += 1

        trace = None
        if self.keep_traces:
            trace = InstantTrace(
                converged=sol.converged, flood_rounds=rounds,
                requests=tuple(initial), injections=inj,
                ev_grid_kw={sc.fleet[i].ev_id: grid_kw[i]
                            for i in self._active if grid_kw[i] > 0.0})
            self.traces.append(trace)

        # Phase 6: sessions ending after this instant.
        for idx in sorted(self._active):
            prof = sc.fleet[idx]
            day_d, now, st = self._active[idx]
            if now + 1 >= prof.window_length:
                self.strategy.session_end(prof, st)
                k_p = st.k_p
                if k_p > 0:
                    self.mean_reward_ev[day_d, idx] = (
                        float(st.reward_trace.sum()) / k_p)
                self.final_soc[day_d, idx] = st.soc
                del self._active[idx]
                self._pending[idx] = []
            else:
                self._active[idx][1] = now + 1

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
