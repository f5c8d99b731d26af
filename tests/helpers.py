"""Reference tools the tests check the program against; the program itself
does not use them.

`defaults` gives every test its configuration values: the SCHEMA defaults
under the test's overrides, and `amas` and `simulation` build the learner
and the simulation from them.

`SuperArm` scores a set of instants under a parameter vector,
`pseudo_regret` traces the regret of a run of daily selections,
`power_mismatch` recomputes a power-flow solution's residual from its
complex voltages, `certificate_bounds` walks each bus up to the slack for
the power-flow certificate's bounds, `site_tables` builds the per-instant
load, PV and oracle base tables one instant and one site at a time,
`within_limits` judges one injection vector by a power flow,
`oracle_needs` counts the instants each EV needs at full power,
`optimal_plans` finds the cheapest violation-free oracle plans by brute
force, `uncontrolled_accounts` books an uncontrolled run one EV and one
instant at a time, `round_flood` floods requests one synchronous round at
a time, `take_requests_per_ev` applies what each EV takes from the
requests it received one EV at a time, `plugged_in` builds a roster of
EVs at given buses, and `record_instants` runs a simulation and records
what each of its instants looked up.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from gridcharge import engine
from gridcharge.agents import (EvProfile, Fleet, Roster, request_priority,
                               required_instants)
from gridcharge.bandit import select_super_arm
from gridcharge.config import SCHEMA, default_pv_exploration
from gridcharge.gridnet import (NetworkTopology, PowerFlowSolution, pv_power,
                                solve_power_flow)
from gridcharge.strategies import AmasStrategy


def defaults(*path, **overrides) -> dict:
    """The SCHEMA defaults of the subtree at `path` (say "scenario",
    "topology"; none for the whole tree) with `overrides` laid over them;
    a mapping given for a nested key overrides its keys in turn. Nothing
    is validated, so a test may hand the library a value that the config
    rejects; a key SCHEMA does not have is an error."""
    schema = SCHEMA
    for key in path:
        schema = schema[key]
    unknown = set(overrides) - set(schema)
    if unknown:
        raise KeyError(f"not in SCHEMA at {path}: {sorted(unknown)}")
    return {key: defaults(*path, key, **overrides.get(key, {}))
            if isinstance(spec, dict) else overrides.get(key, spec[1])
            for key, spec in schema.items()}


def amas(cls=AmasStrategy, /, **bandit):
    """An `AmasStrategy` (or subclass `cls`) with the `bandit` defaults
    under the `bandit` overrides; a null beta is, as in the config, the PV
    exploration of the default panel."""
    scales = defaults("bandit", **bandit)
    if scales["beta"] is None:
        pv = defaults("scenario", "pv")
        scales["beta"] = default_pv_exploration(pv["area_m2"],
                                                pv["efficiency"])
    return cls(**scales)


def simulation(scenario, strategy, **overrides) -> engine.Simulation:
    """A `Simulation` of `scenario` under `strategy`, with the default
    `cooperation_fraction` unless `overrides` gives one."""
    return engine.Simulation(scenario, strategy,
                             defaults(**overrides)["cooperation_fraction"])


@dataclass(frozen=True)
class SuperArm:
    """A set of decision instants played together on one day."""
    instants: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "instants", tuple(sorted(set(self.instants))))

    def __contains__(self, instant: int) -> bool:
        return instant in set(self.instants)

    def __len__(self) -> int:
        return len(self.instants)

    def mask(self, m: int) -> np.ndarray:
        if self.instants and not (0 <= min(self.instants) <= max(self.instants) < m):
            raise ValueError("super-arm instants out of range")
        out = np.zeros(m)
        out[list(self.instants)] = 1.0
        return out

    def value(self, theta: np.ndarray) -> float:
        return float(sum(theta[i] for i in self.instants))


def pseudo_regret(true_theta: np.ndarray, daily_selections, k) -> dict:
    """Cumulative regret traces over a run of daily selections.

    `daily_selections` is a sequence of (SuperArm, theta_hat_d) pairs; `k`
    is the optimal super-arm size, an int or one value per day. Returns
    cumulative traces under two scorings of the played arm:
      "estimated": optimal true value minus the day's estimated played value
      "true":      optimal true value minus the true played value
    The "true" trace is non-decreasing by optimality of the best arm.
    """
    true_theta = np.asarray(true_theta, dtype=float)
    n = len(daily_selections)
    ks = [int(k)] * n if np.isscalar(k) else [int(x) for x in k]
    if len(ks) != n:
        raise ValueError("one k per day required")
    est = np.zeros(n)
    tru = np.zeros(n)
    for d, ((arm, theta_hat_d), kd) in enumerate(zip(daily_selections, ks)):
        best = SuperArm(select_super_arm(true_theta,
                                         range(true_theta.shape[0]), kd))
        opt = best.value(true_theta)
        est[d] = opt - arm.value(np.asarray(theta_hat_d, dtype=float))
        tru[d] = opt - arm.value(true_theta)
    return {"estimated": np.cumsum(est), "true": np.cumsum(tru)}


def power_mismatch(net: NetworkTopology, solution: PowerFlowSolution,
                   injections) -> float:
    """Worst per-unit complex-power residual of a solution (base v_base^2 VA).

    Recomputes each non-slack bus's net injection from the complex voltages
    and compares against the specified active powers (reactive spec is 0).
    Each line's ends come from its `Line` record, in either orientation,
    not from the topology's own parent/child search.
    """
    p = net.injection_array(injections)
    v = solution.v_complex
    a = np.array([net.bus_index[l.from_bus] for l in net.lines], dtype=int)
    b = np.array([net.bus_index[l.to_bus] for l in net.lines], dtype=int)
    i_line = (v[a] - v[b]) / net.impedance
    i_net = np.zeros(net.n_buses, dtype=complex)
    np.add.at(i_net, b, i_line)
    np.subtract.at(i_net, a, i_line)
    s = v * np.conj(i_net)
    mismatch = s - p
    root = net.bus_index[net.slack_bus_id]
    mismatch[root] = 0.0
    return float(np.max(np.abs(mismatch)) / net.v_base**2)


def certificate_bounds(net: NetworkTopology, injections):
    """The bounds `certainly_within_limits` tests, by walking every bus up
    `parent_bus` to the slack in plain Python: S_l, the sum of |p| over the
    buses below line l, and then for each non-slack bus in index order d_b,
    the sum of |Z_l| * S_l / v_lo over the lines above it, with
    v_lo = max(v_min) * v_base. Returns one list, S then d."""
    p = [abs(float(x)) for x in injections]
    parent_bus, parent_line = net.parent_bus.tolist(), net.parent_line.tolist()

    def lines_above(bus):
        while parent_bus[bus] >= 0:
            yield parent_line[bus]
            bus = parent_bus[bus]

    load = [0.0] * net.n_lines
    for bus, watt in enumerate(p):
        for line in lines_above(bus):
            load[line] += watt
    v_lo = max(b.v_min for b in net.buses) * net.v_base
    z = [abs(complex(l.resistance, l.reactance)) for l in net.lines]
    drop = [sum(z[line] * load[line] / v_lo for line in lines_above(bus))
            for bus in range(net.n_buses) if parent_bus[bus] >= 0]
    return load + drop


def site_tables(scenario):
    """The per-instant tables of a scenario, one instant of day and one
    site at a time: the household-load injections per (instant, bus), each
    bus adding its sites' loads in site order from 0; the PV watt per
    (instant, site), area x efficiency x irradiance; and the greedy
    oracle's base injections, the loads minus, in site order, the PV of
    each site with no EV connected at that instant. Returns the three
    tables."""
    net, m = scenario.topology, scenario.m
    site_bus = scenario.site_bus.tolist()
    # EV e lives at site e.
    connected = {((p.t_arrive + l) % m, e)
                 for e, p in enumerate(scenario.fleet)
                 for l in range(p.window_length)}
    loads = np.zeros((m, net.n_buses))
    pv = np.zeros((m, len(site_bus)))
    base = np.zeros((m, net.n_buses))
    for i in range(m):
        irradiance = float(scenario.irradiance_profile[i])
        for s, bus in enumerate(site_bus):
            loads[i, bus] += float(scenario.site_load_profiles[s, i])
            pv[i, s] = (float(scenario.site_pv_area[s])
                        * float(scenario.site_pv_efficiency[s]) * irradiance)
        base[i] = loads[i]
        for s, bus in enumerate(site_bus):
            if (i, s) not in connected:
                base[i, bus] -= pv[i, s]
    return loads, pv, base


def within_limits(net: NetworkTopology, injections) -> bool:
    """Whether a power flow over `injections` converges with no line above
    its rating and no bus voltage outside its band."""
    sol = solve_power_flow(net, injections)
    v = sol.bus_voltages
    return bool(sol.converged and not (sol.line_currents > net.i_rated).any()
                and not ((v < net.v_min) | (v > net.v_max)).any())


def oracle_needs(scenario) -> list:
    """Each EV's `need`: the full-power instants it needs to reach its SoC
    target with its own site's PV over its whole window."""
    m = scenario.m
    _, pv, _ = site_tables(scenario)
    pv_ahead = np.array([
        pv[(p.t_arrive + np.arange(p.window_length)) % m, e].sum()
        for e, p in enumerate(scenario.fleet)])
    return required_instants(Fleet(scenario.fleet, m), scenario.delta_i,
                             pv_ahead, 0, 0).tolist()


def optimal_plans(scenario) -> dict:
    """The cheapest violation-free charging plans, by brute force.

    Goes over every joint choice of each EV's `need` instants of its
    window, charging at full power on the base injections of `site_tables`,
    and keeps the first of the cheapest (by the sum of the chosen prices)
    whose every instant stays `within_limits`; each (instant, charging
    EVs) verdict is solved once. Returns ev_id -> boolean array over the
    EV's local window, as `centralized_oracle` does.
    """
    net, m, fleet = scenario.topology, scenario.m, scenario.fleet
    _, _, base = site_tables(scenario)
    windows = [(p.t_arrive + np.arange(p.window_length)) % m for p in fleet]
    choices = [list(itertools.combinations(range(len(w)), k))
               for w, k in zip(windows, oracle_needs(scenario))]
    costs = [[sum(float(scenario.price_profile[w[l]]) for l in c)
              for c in cs] for w, cs in zip(windows, choices)]
    by_id = sorted(range(len(fleet)), key=lambda e: fleet[e].ev_id)
    verdicts = {}

    def feasible(joint):
        charging = {}
        for e in by_id:
            for l in choices[e][joint[e]]:
                charging.setdefault(int(windows[e][l]), []).append(e)
        for i, evs in charging.items():
            key = (i, tuple(evs))
            if key not in verdicts:
                inj = base[i].copy()
                for e in evs:
                    inj[net.bus_index[fleet[e].bus_id]] += \
                        fleet[e].p_max * 1000.0
                verdicts[key] = within_limits(net, inj)
            if not verdicts[key]:
                return False
        return True

    best, best_cost = None, np.inf
    for joint in itertools.product(*(range(len(cs)) for cs in choices)):
        cost = sum(costs[e][c] for e, c in enumerate(joint))
        if cost < best_cost and feasible(joint):
            best, best_cost = joint, cost
    if best is None:
        raise ValueError("no joint plan stays within the limits")
    plans = {}
    for e, p in enumerate(fleet):
        plans[p.ev_id] = np.zeros(p.window_length, dtype=bool)
        plans[p.ev_id][list(choices[e][best[e]])] = True
    return plans


def uncontrolled_accounts(scenario):
    """What a run of `UncontrolledStrategy` books, one EV and one instant at
    a time in plain Python floats: per (day, EV) cell the cost, the grid
    and battery energy and the final SoC.

    Each day an EV plugs in at `t_arrive` with `soc_start` and stays
    `window_length` instants; it asks for `p_max` while below its SoC
    target; the battery takes its site's PV first, then grid power, both
    capped by its free capacity. The network never curtails it.
    """
    m, days, dh = scenario.m, scenario.days, scenario.delta_i / 60.0
    shape = (days, len(scenario.fleet))
    cost, grid, battery, final = (np.zeros(shape) for _ in range(4))
    for e, p in enumerate(scenario.fleet):
        # EV e lives at site e.
        area = float(scenario.site_pv_area[e])
        efficiency = float(scenario.site_pv_efficiency[e])
        for day in range(days):
            soc, c, g, b = p.soc_start, 0.0, 0.0, 0.0
            for l in range(p.window_length):
                i = (p.t_arrive + l) % m
                pv_w = float(pv_power(area, efficiency,
                                      scenario.irradiance_profile[i]))
                asked = p.p_max if soc < p.soc_target else 0.0
                headroom = max(0.0, (1.0 - soc) * p.e_bat)
                pv_in = min(pv_w / 1000.0 * dh, headroom)
                grid_in = min(p.eta_chrg * asked * dh, headroom - pv_in)
                grid_kw = grid_in / (p.eta_chrg * dh) if grid_in > 0.0 else 0.0
                stored = pv_in + grid_in
                soc += stored / p.e_bat
                c += float(scenario.price_profile[i]) * grid_kw * dh
                g += grid_in
                b += stored
            cost[day, e], grid[day, e] = c, g
            battery[day, e], final[day, e] = b, soc
    return {"cost": cost, "grid_energy": grid, "battery_energy": battery,
            "final_soc": final}


def forward_request(held, received):
    """One agent's forwarding rule for the requests received in one round:
    the most critical received request (`request_priority`, ties toward
    the lowest origin id), or None when it does not strictly beat `held`,
    the request the agent holds (or None)."""
    best = max(sorted(received, key=lambda r: r.origin_agent), default=None,
               key=lambda r: request_priority(r.criticality))
    if best is None or (held is not None and request_priority(best.criticality)
                        <= request_priority(held.criticality)):
        return None
    return best


def round_flood(net: NetworkTopology, evs_at_bus: dict, initial,
                forward=forward_request):
    """`engine.flood_requests` over `net`, one synchronous round at a time.

    Lines, buses and the EVs `evs_at_bus` lists at each bus are nodes keyed
    (kind, id). Each origin holds its request and sends it to its
    neighbours; in each round every node that received requests applies
    `forward(held, received)`, adopts what it returns and, unless it is an
    EV, sends it on. Returns each EV's adoptions in order and the number
    of rounds in which some node received a request.
    """
    if not initial:
        return {}, 0
    neighbors = {("bus", bus.id): [] for bus in net.buses}
    for line in net.lines:
        ends = [("bus", line.from_bus), ("bus", line.to_bus)]
        neighbors[("line", line.id)] = ends
        for end in ends:
            neighbors[end].append(("line", line.id))
    for bus, evs in evs_at_bus.items():
        neighbors[("bus", bus)] += [("ev", ev) for ev in evs]

    def send(node, req, box):
        for nb in neighbors.get(node, ()):
            box.setdefault(nb, []).append(req)

    held, ev_received, inbox = {}, {}, {}
    for req in initial:
        origin = (req.origin_kind, req.origin_agent)
        held[origin] = req
        send(origin, req, inbox)
    rounds = 0
    while inbox:
        rounds += 1
        outbox = {}
        for node, reqs in sorted(inbox.items()):
            best = forward(held.get(node), reqs)
            if best is None:
                continue
            held[node] = best
            if node[0] == "ev":
                ev_received.setdefault(node[1], []).append(best)
            else:
                send(node, best, outbox)
        inbox = outbox
    return ev_received, rounds


def take_requests_per_ev(received: dict, ev_ids) -> dict:
    """What each EV takes from the requests it received, one EV at a time,
    as `agents.take_requests` did over EV ids: `received` maps an EV id to
    its requests, and `ev_ids` names each fleet row. An EV takes the
    largest nonzero criticality it received (0 when none), and it
    curtails (forces) when a +1 (-1) request it received names its row.
    Returns EV id -> (that criticality, curtail, force)."""
    taken = {}
    for ev, reqs in received.items():
        top = max((r.criticality for r in reqs if r.criticality != 0.0),
                  default=0.0)
        hits = [r.criticality for r in reqs
                if ev in {ev_ids[t] for t in r.target_rows.tolist()}]
        taken[ev] = (top, 1.0 in hits, -1.0 in hits)
    return taken


def plugged_in(graph, ev_bus: dict, rows=None) -> Roster:
    """A fleet of one EV per entry of `ev_bus` (EV id -> bus id of the
    agent graph `graph`), in that order, and the roster of its `rows`
    (default: every row, in order)."""
    profiles = [EvProfile(ev_id=ev, bus_id=bus, e_bat=52.0, p_max=7.0,
                          eta_chrg=0.95, soc_start=0.5, soc_target=0.8,
                          t_arrive=0, t_depart=1)
                for ev, bus in ev_bus.items()]
    fleet = Fleet(profiles, 1,
                  bus=[graph.node["bus", bus] for bus in ev_bus.values()])
    return Roster(fleet, range(len(profiles)) if rows is None else rows)


def flood_by_id(graph, ev_bus: dict, initial):
    """`engine.flood_requests` over `graph` with the EVs of `ev_bus` (EV id
    -> bus id) plugged in (`plugged_in`). Returns what each EV received, by
    EV id, and the round count."""
    roster = plugged_in(graph, ev_bus)
    received, rounds = engine.flood_requests(graph, roster, initial)
    ev_ids = roster.fleet.ev_ids
    return {ev_ids[row]: seq for row, seq in received.items()}, rounds


@dataclass
class InstantRecord:
    """What one instant `g` of a simulation looked up: its bus injection
    vector, the grid state it took and whether its power totals cleared it
    (`cleared`, so that it did not ask the judge), the initial requests it
    flooded and the flood's round count, and, per EV that charged from the
    grid, its grid power in kW."""
    g: int
    injections: np.ndarray | None = None
    state: tuple | None = None
    cleared: bool = False
    requests: tuple = ()
    flood_rounds: int = 0
    ev_grid_kw: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.state[0]


def record_instants(sim):
    """Run `sim` and return its result and one `InstantRecord` per instant
    it ran, in order.

    Wraps, for the run only, what an instant looks up when it is called:
    `sim.run_instant` opens each record. The injections are the engine's
    own: with EVs plugged in, `sim.injections` of what `engine.charge`
    returned, assembled when `feedback` is called (before any session
    ends); otherwise the instant of day's row of the idle table. The
    state is what `sim.judge.state` returned, which must have been given
    those injections, or the judge's all-clear state where
    `engine.bound_below_limit` cleared the instant. `engine.flood_requests`
    gives the initial requests and rounds, and the strategy's `decide` and
    `feedback` the roster's grid energy before and after the physics, of
    which the EVs that `feedback` is told charged get the difference over
    eta * dh as their grid power. For an EV that plugged in at that
    instant the difference is its grid energy exactly; otherwise it may be
    off by the rounding of the running sum.
    """
    records, grid_before, physics, judged = [], None, None, []
    run_instant, state = sim.run_instant, sim.judge.state
    flood, charge, clears = (engine.flood_requests, engine.charge,
                             engine.bound_below_limit)
    strategy = sim.strategy
    decide, feedback = strategy.decide, strategy.feedback

    def on_instant(g):
        record = InstantRecord(g)
        records.append(record)
        judged.clear()
        out = run_instant(g)
        if record.injections is None:       # no EV plugged in
            record.injections = sim._idle_inj[g % sim.m]
        if record.cleared:
            assert not judged
            record.state = sim.judge.all_clear
        else:
            assert [inj.tobytes() for inj in judged] == [
                record.injections.tobytes()]
        return out

    def on_clears(*args):
        records[-1].cleared = bool(clears(*args))
        return records[-1].cleared

    def on_state(inj):
        judged.append(inj)
        records[-1].state = state(inj)
        return records[-1].state

    def on_charge(*args):
        nonlocal physics
        physics = charge(*args)
        return physics

    def on_flood(neighbors, roster, initial):
        received, rounds = flood(neighbors, roster, initial)
        records[-1].requests, records[-1].flood_rounds = tuple(initial), rounds
        return received, rounds

    def on_decide(roster):
        nonlocal grid_before
        grid_before = roster.grid_energy.copy()
        return decide(roster)

    def on_feedback(roster, charged, cost, top, pv_w):
        record = records[-1]
        record.injections = sim.injections(record.g % sim.m, *physics, pv_w)
        grid_kw = ((roster.grid_energy - grid_before)
                   / (roster.eta_chrg * sim.delta_h))
        ev_ids = roster.fleet.ev_ids
        record.ev_grid_kw = {ev_ids[i]: kw for i, kw in zip(
            roster.rows[charged].tolist(), grid_kw[charged].tolist())}
        return feedback(roster, charged, cost, top, pv_w)

    with mock.patch.object(sim, "run_instant", on_instant), \
            mock.patch.object(sim.judge, "state", on_state), \
            mock.patch.object(engine, "bound_below_limit", on_clears), \
            mock.patch.object(engine, "charge", on_charge), \
            mock.patch.object(engine, "flood_requests", on_flood), \
            mock.patch.object(strategy, "decide", on_decide), \
            mock.patch.object(strategy, "feedback", on_feedback):
        result = sim.run()
    return result, records
