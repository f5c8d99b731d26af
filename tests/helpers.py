"""Reference tools the tests check the program against; the program itself
does not use them.

`SuperArm` scores a set of instants under a parameter vector,
`pseudo_regret` traces the regret of a run of daily selections,
`power_mismatch` recomputes a power-flow solution's residual from its
complex voltages, `certificate_bounds` walks each bus up to the slack for
the power-flow certificate's bounds, `site_tables` builds the per-instant
load, PV and oracle base tables one instant and one site at a time,
`uncontrolled_accounts` books an uncontrolled run one EV and one instant
at a time, `round_flood` floods requests one synchronous round at a time,
and `record_instants` runs a simulation and records what each of its
instants looked up.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from gridcharge import engine
from gridcharge.agents import request_priority
from gridcharge.bandit import select_super_arm
from gridcharge.gridnet import NetworkTopology, PowerFlowSolution, pv_power


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
    """
    p = net.injection_array(injections)
    v = solution.v_complex
    i_line = (v[net.line_from] - v[net.line_to]) / net.impedance
    i_net = np.zeros(net.n_buses, dtype=complex)
    np.add.at(i_net, net.line_to, i_line)
    np.subtract.at(i_net, net.line_from, i_line)
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
    net, m, sites = scenario.topology, scenario.m, scenario.sites
    connected = {((p.t_arrive + l) % m, scenario.ev_site[p.ev_id])
                 for p in scenario.fleet for l in range(p.window_length)}
    loads = np.zeros((m, net.n_buses))
    pv = np.zeros((m, len(sites)))
    base = np.zeros((m, net.n_buses))
    for i in range(m):
        irradiance = float(scenario.irradiance_profile[i])
        for s, site in enumerate(sites):
            loads[i, net.bus_index[site.bus_id]] += float(
                scenario.site_load_profiles[s, i])
            pv[i, s] = site.pv_area * site.pv_efficiency * irradiance
        base[i] = loads[i]
        for s, site in enumerate(sites):
            if (i, s) not in connected:
                base[i, net.bus_index[site.bus_id]] -= pv[i, s]
    return loads, pv, base


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
        site = scenario.sites[scenario.ev_site[p.ev_id]]
        for day in range(days):
            soc, c, g, b = p.soc_start, 0.0, 0.0, 0.0
            for l in range(p.window_length):
                i = (p.t_arrive + l) % m
                pv_w = float(pv_power(site.pv_area, site.pv_efficiency,
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


@dataclass
class InstantRecord:
    """What one instant `g` of a simulation looked up: the bus injection
    vector it judged and whether its power flow converged, the initial
    requests it flooded and the flood's round count, and, per EV that
    charged from the grid, its grid power in kW."""
    g: int
    injections: np.ndarray | None = None
    converged: bool | None = None
    requests: tuple = ()
    flood_rounds: int = 0
    ev_grid_kw: dict = field(default_factory=dict)


def record_instants(sim):
    """Run `sim` and return its result and one `InstantRecord` per instant
    it ran, in order.

    Wraps, for the run only, what an instant looks up when it is called:
    `sim.run_instant` opens each record, `sim.judge.state` gives the
    injections and convergence, `engine.flood_requests` the initial
    requests and rounds, and the strategy's `decide` and `feedback` the
    roster's grid energy before and after the physics, of which the EVs
    that `feedback` is told charged get the difference over eta * dh as
    their grid power. For an EV that plugged in at that instant the
    difference is its grid energy exactly; otherwise it may be off by
    the rounding of the running sum.
    """
    records, grid_before = [], None
    run_instant, state = sim.run_instant, sim.judge.state
    flood, strategy = engine.flood_requests, sim.strategy
    decide, feedback = strategy.decide, strategy.feedback

    def on_instant(g):
        records.append(InstantRecord(g))
        return run_instant(g)

    def on_state(inj):
        out = state(inj)
        records[-1].injections, records[-1].converged = inj, out[0]
        return out

    def on_flood(neighbors, evs_at_bus, initial):
        received, rounds = flood(neighbors, evs_at_bus, initial)
        records[-1].requests, records[-1].flood_rounds = tuple(initial), rounds
        return received, rounds

    def on_decide(roster):
        nonlocal grid_before
        grid_before = roster.grid_energy.copy()
        return decide(roster)

    def on_feedback(roster, charged, *args):
        grid_kw = ((roster.grid_energy - grid_before)
                   / (roster.eta_chrg * sim.delta_h))
        ev_ids = roster.fleet.ev_ids
        records[-1].ev_grid_kw = {ev_ids[i]: kw for i, kw in zip(
            roster.rows[charged].tolist(), grid_kw[charged].tolist())}
        return feedback(roster, charged, *args)

    with mock.patch.object(sim, "run_instant", on_instant), \
            mock.patch.object(sim.judge, "state", on_state), \
            mock.patch.object(engine, "flood_requests", on_flood), \
            mock.patch.object(strategy, "decide", on_decide), \
            mock.patch.object(strategy, "feedback", on_feedback):
        result = sim.run()
    return result, records
