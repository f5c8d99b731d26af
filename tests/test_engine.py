"""Simulation engine: scenario generation, flooding, instant pipeline, I/O."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge import engine, strategies
from gridcharge.agents import CriticalityRequest, EvProfile, request_priority
from gridcharge.engine import (EvParams, GridJudge, ProfileError, Scenario,
                               ScenarioConfig, ScenarioError, Simulation,
                               agent_neighbors, default_price_profile,
                               flood_requests, generate_scenario,
                               ingest_profile)
from gridcharge.gridnet import (FeederSpec, NetworkTopology,
                                build_replicated_feeder,
                                certainly_within_limits, solve_power_flow)
from gridcharge.strategies import (AmasStrategy, UncontrolledStrategy,
                                   centralized_oracle)
from helpers import (forward_request, record_instants, round_flood,
                     uncontrolled_accounts)
from test_grid import radial_trees


def small_config(**kw):
    base = dict(
        feeder=FeederSpec(sub_districts=1, buses_per_feeder=3,
                          households_per_bus=2),
        fleet_size=3,
        m=96,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def req(crit, origin, kind="line", targets=()):
    return CriticalityRequest(criticality=crit, target_evs=frozenset(targets),
                              origin_agent=origin, origin_kind=kind)


def evs_at(ev_bus):
    """The EV ids at each bus id, from ev_id -> bus id."""
    evs_at_bus = {}
    for ev, bus in ev_bus.items():
        evs_at_bus.setdefault(bus, []).append(ev)
    return evs_at_bus


def flood(net, ev_bus, initial):
    """flood_requests over `net` with EVs attached as ev_id -> bus id."""
    return flood_requests(agent_neighbors(net), evs_at(ev_bus), initial)


def flood_with_bus_line_preference(net, ev_bus, initial):
    """Reference: flooding as it ran while a bus preferred received +1
    line-congestion requests over bus requests, with the full line, bus
    and EV neighbour map built per call."""
    neighbors = {}
    for line in net.lines:
        neighbors[("line", line.id)] = [("bus", line.from_bus),
                                        ("bus", line.to_bus)]
    for bus in net.buses:
        neighbors[("bus", bus.id)] = []
    for line in net.lines:
        neighbors[("bus", line.from_bus)].append(("line", line.id))
        neighbors[("bus", line.to_bus)].append(("line", line.id))
    for ev_id, bus_id in ev_bus.items():
        neighbors[("bus", bus_id)].append(("ev", ev_id))
        neighbors[("ev", ev_id)] = [("bus", bus_id)]

    def forward(kind, held, received):
        if kind == "bus":
            received = [r for r in received
                        if r.origin_kind == "line" and r.criticality == 1.0] \
                or received
        best = max(sorted(received, key=lambda r: r.origin_agent),
                   default=None, key=lambda r: request_priority(r.criticality))
        if best is None or (held is not None and
                             request_priority(best.criticality)
                             <= request_priority(held.criticality)):
            return None
        return best

    if not initial:
        return {}, 0
    held, ev_received, inbox = {}, {}, {}
    for r in initial:
        origin = (r.origin_kind, r.origin_agent)
        held[origin] = r
        for nb in neighbors[origin]:
            inbox.setdefault(nb, []).append(r)
    rounds = 0
    while inbox:
        rounds += 1
        outbox = {}
        for node, reqs in sorted(inbox.items()):
            best = forward(node[0], held.get(node), reqs)
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


def scenario_fingerprint(sc: Scenario) -> str:
    parts = [repr([(p.ev_id, p.bus_id, p.t_arrive, p.t_depart)
                   for p in sc.fleet]),
             repr(sc.price_profile.tolist()),
             repr(sc.irradiance_profile.tolist())]
    return "|".join(parts)


class TestGenerateScenario:
    def test_deterministic_given_seed(self):
        a = generate_scenario(small_config(), 5, 42)
        b = generate_scenario(small_config(), 5, 42)
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_different_seed_differs(self):
        a = generate_scenario(small_config(), 5, 1)
        b = generate_scenario(small_config(), 5, 2)
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

    def test_ev_parameters_propagate(self):
        cfg = ScenarioConfig(fleet_size=55)
        sc = generate_scenario(cfg, 1, 1)
        assert len(sc.fleet) == 55
        for p in sc.fleet:
            assert (p.e_bat, p.p_max, p.eta_chrg, p.soc_target) == \
                (52.0, 7.0, 0.95, 0.8)

    def test_zero_evs_valid(self):
        sc = generate_scenario(small_config(fleet_size=0), 2, 1)
        assert sc.fleet == []
        res, records = record_instants(Simulation(sc, UncontrolledStrategy()))
        assert res.violations_current.sum() == 0
        assert all(not r.requests for r in records)

    def test_fleet_larger_than_sites_rejected(self):
        with pytest.raises(ScenarioError):
            generate_scenario(small_config(fleet_size=100), 1, 1)

    @pytest.mark.parametrize("bad", [1.2, -0.1, np.nan])
    def test_price_outside_unit_range_rejected(self, bad):
        price = np.full(96, 0.5)
        price[3] = bad
        with pytest.raises(ScenarioError, match="price_profile"):
            generate_scenario(small_config(price_profile=price), 1, 1)

    def test_overnight_windows_never_wrap(self):
        sc = generate_scenario(ScenarioConfig(fleet_size=55), 1, 3)
        for p in sc.fleet:
            assert p.t_depart > p.t_arrive
            # evening arrival, next-morning departure
            assert p.t_depart >= sc.m

    def test_invariant_m_delta(self):
        sc = generate_scenario(small_config(m=48), 1, 1)
        assert sc.delta_i == 30.0


class TestFloodRequests:
    def topo(self, buses=5):
        return build_replicated_feeder(
            FeederSpec(sub_districts=1, buses_per_feeder=buses,
                       households_per_bus=1))

    def test_no_requests_zero_rounds(self):
        net = self.topo()
        received, rounds = flood(net, {"ev0": "d0b0"}, [])
        assert received == {} and rounds == 0

    def test_single_request_reaches_all_evs(self):
        net = self.topo()
        ev_bus = {f"ev{i}": f"d0b{i}" for i in range(5)}
        initial = [req(1.0, "l_d0b4", targets={"ev0"})]
        received, rounds = flood(net, ev_bus, initial)
        assert set(received) == set(ev_bus)
        for reqs in received.values():
            assert reqs[-1].origin_agent == "l_d0b4"

    def test_rounds_bounded_by_diameter(self):
        # Chain of B buses: agent-graph diameter is ~2B+2 (line/bus alternate
        # plus the EV hop); a leaf-line request must reach the farthest EV.
        B = 6
        net = self.topo(B)
        ev_bus = {"evfar": "d0b0", "evnear": f"d0b{B-1}"}
        initial = [req(1.0, f"l_d0b{B-1}")]
        received, rounds = flood(net, ev_bus, initial)
        assert "evfar" in received
        diameter = 2 * B + 2
        assert rounds <= diameter

    def test_monotone_max_wins(self):
        net = self.topo()
        ev_bus = {"ev0": "d0b2"}
        initial = [req(0.5, "d0b0", kind="bus"), req(1.0, "l_d0b4")]
        received, _ = flood(net, ev_bus, initial)
        assert received["ev0"][-1].criticality == 1.0

    def test_ev_receives_improving_sequence(self):
        net = self.topo()
        ev_bus = {"ev0": "d0b0"}
        initial = [req(0.5, "d0b4", kind="bus"), req(1.0, "l_d0b1")]
        received, _ = flood(net, ev_bus, initial)
        crits = [r.criticality for r in received["ev0"]]
        assert crits == sorted(crits)
        assert crits[-1] == 1.0

    def test_second_request_from_one_origin_rejected(self):
        net = self.topo()
        with pytest.raises(ValueError, match="l_d0b1"):
            flood(net, {}, [req(1.0, "l_d0b1"), req(0.5, "l_d0b1")])

    def test_no_requests_never_read_the_graph(self):
        assert flood_requests(None, {}, []) == ({}, 0)

    @given(tree=radial_trees(min_buses=1), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_round_by_round_flood(self, tree, data):
        # The one-pass-per-level flood against synchronous rounds of the
        # forwarding rule, with requests of mixed levels and signs.
        buses, lines, slack = tree
        net = NetworkTopology(buses, lines, slack)
        levels = [1.0, -1.0, 0.5, -0.5]
        ev_bus, initial = self.draw_flood(data, buses, lines, levels, levels)
        got, rounds = flood(net, ev_bus, initial)
        want, want_rounds = round_flood(net, evs_at(ev_bus), initial)
        assert rounds == want_rounds
        assert got.keys() == want.keys()
        for ev, seq in want.items():
            assert len(got[ev]) == len(seq)
            assert all(a is b for a, b in zip(got[ev], seq))

    @staticmethod
    def draw_flood(data, buses, lines, line_crits, bus_crits):
        """EVs at random buses (ev id -> bus id) and requests from a random
        subset of lines and of buses, at criticalities drawn from
        `line_crits` and `bus_crits`, each naming a few EVs."""
        bus_ids = [b.id for b in buses]
        ev_bus = {f"ev{i}": data.draw(st.sampled_from(bus_ids))
                  for i in range(data.draw(st.integers(0, 6)))}
        targets = st.frozensets(st.sampled_from(sorted(ev_bus)), max_size=3) \
            if ev_bus else st.just(frozenset())
        initial = [req(data.draw(st.sampled_from(line_crits)), line.id,
                       targets=data.draw(targets))
                   for line in lines if data.draw(st.booleans())]
        initial += [req(data.draw(st.sampled_from(bus_crits)), bus,
                        kind="bus", targets=data.draw(targets))
                    for bus in bus_ids if data.draw(st.booleans())]
        return ev_bus, initial

    @given(tree=radial_trees(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rounds_never_mix_origin_kinds(self, tree, data):
        # Every request starts in round 0 on a bipartite line/bus tree, so
        # the requests a node receives in one round share one origin kind,
        # and a bus preference for line congestion never changes a result.
        buses, lines, slack = tree
        net = NetworkTopology(buses, lines, slack)
        ev_bus, initial = self.draw_flood(data, buses, lines, [1.0],
                                          [1.0, -1.0])
        kinds = []

        def spy(held, received):
            kinds.append({r.origin_kind for r in received})
            return forward_request(held, received)

        round_flood(net, evs_at(ev_bus), initial, forward=spy)
        assert all(len(k) == 1 for k in kinds)
        assert (flood(net, ev_bus, initial)
                == flood_with_bus_line_preference(net, ev_bus, initial))


def force_evening_fleet(sc, t_arrive=70, t_depart=96 + 32):
    """Rewrite every EV window to a fixed overnight span (test determinism)."""
    fleet = [EvProfile(ev_id=p.ev_id, bus_id=p.bus_id, e_bat=p.e_bat,
                       p_max=p.p_max, eta_chrg=p.eta_chrg,
                       soc_start=p.soc_start, soc_target=p.soc_target,
                       t_arrive=t_arrive, t_depart=t_depart)
             for p in sc.fleet]
    sc.fleet = fleet
    return sc


class TestSimulationPipeline:
    def test_energy_accounting(self):
        sc = generate_scenario(small_config(), 3, 7)
        res = Simulation(sc, AmasStrategy()).run()
        for d in range(3):
            for j, p in enumerate(sc.fleet):
                gained = (res.final_soc[d, j] - p.soc_start) * p.e_bat
                assert gained == pytest.approx(res.battery_energy[d, j],
                                               abs=1e-9)

    def test_no_phantom_injections(self):
        sc = generate_scenario(small_config(), 1, 7)
        _, records = record_instants(Simulation(sc, UncontrolledStrategy()))
        for r in records:
            # an instant's grid-side EV power lies within what the fleet draws
            total_kw = sum(r.ev_grid_kw.values())
            assert total_kw >= 0.0
            if r.ev_grid_kw:
                assert total_kw <= 7.0 / 0.95 * len(sc.fleet) + 1e-9

    def test_roster_books_as_a_per_ev_loop(self):
        # The second EV plugs in at the last instant of the first, whose
        # session leaves the roster right after it; the third EV's window
        # crosses midnight. The roster's session sums must book exactly
        # what one EV and one instant at a time books.
        sc = generate_scenario(small_config(m=24), 3, 7)
        windows = [(9, 13), (12, 18), (21, 27)]
        sc.fleet = [replace(p, t_arrive=a, t_depart=d, e_bat=20.0)
                    for p, (a, d) in zip(sc.fleet, windows)]
        res = Simulation(sc, UncontrolledStrategy()).run()
        for name, want in uncontrolled_accounts(sc).items():
            assert np.array_equal(getattr(res, name), want), name
        assert (res.battery_energy > res.grid_energy).all()  # PV counted

    def test_recorder_books_the_grid_energy(self):
        # The recorder's grid power, times eta * dh and summed over each
        # session, gives back the run's grid energy, and it opens one
        # record per instant up to the end of the last session.
        sc = generate_scenario(small_config(), 3, 7)
        res, records = record_instants(Simulation(sc, UncontrolledStrategy()))
        grid = np.zeros_like(res.grid_energy)
        dh = sc.delta_i / 60.0
        for r in records:
            for e, p in enumerate(sc.fleet):
                if p.ev_id in r.ev_grid_kw:
                    day = (r.g - p.t_arrive) // sc.m
                    grid[day, e] += r.ev_grid_kw[p.ev_id] * p.eta_chrg * dh
        assert (grid > 0.0).all()
        assert np.allclose(grid, res.grid_energy, rtol=0.0, atol=1e-9)
        last = max((sc.days - 1) * sc.m + p.t_arrive + p.window_length
                   for p in sc.fleet)
        assert [r.g for r in records] == list(range(max(last, sc.days * sc.m)))

    def test_uncontrolled_reaches_target(self):
        sc = generate_scenario(small_config(), 2, 7)
        res = Simulation(sc, UncontrolledStrategy()).run()
        assert (res.final_soc >= 0.8 - 1e-9).all()

    def test_uncontrolled_cost_closed_form(self):
        # Generous network, zero PV: charging runs at p_max from arrival for
        # exactly ceil(need / per-instant energy) instants (the last instant
        # still draws full power), so the cost is the arrival-anchored
        # tariff sum over those instants.
        cfg = small_config(fleet_size=1,
                           irradiance_profile=np.zeros(96))
        sc = generate_scenario(cfg, 1, 7)
        res = Simulation(sc, UncontrolledStrategy()).run()
        p = sc.fleet[0]
        dh = sc.delta_i / 60.0
        need = p.e_bat * (p.soc_target - p.soc_start)
        k = int(np.ceil(need / (p.eta_chrg * p.p_max * dh) - 1e-12))
        expected = sum(sc.price_profile[(p.t_arrive + l) % sc.m] * p.p_max * dh
                       for l in range(k))
        assert res.cost[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_ev_power_enters_injections_in_session_order(self):
        # Two EVs share a bus and the higher index plugs in first. Grid
        # power is added to the bus injection in session-start order; here
        # the index order would round the float sum differently.
        cfg = small_config(fleet_size=2, irradiance_profile=np.zeros(96),
                           household_load_w=333.3)
        sc = generate_scenario(cfg, 1, 7)
        a, b = sc.fleet
        sc.fleet = [replace(a, t_arrive=40, t_depart=60, p_max=7.0),
                    replace(b, t_arrive=38, t_depart=60, p_max=3.0)]
        record = record_instants(Simulation(sc, UncontrolledStrategy()))[1][40]
        # Both EVs are far below their SoC target and capacity at instant
        # 40 and see no PV, so each draws p_max, as the engine books it.
        dh = sc.delta_i / 60.0
        w_a, w_b = (p.eta_chrg * p.p_max * dh / (p.eta_chrg * dh) * 1000.0
                    for p in sc.fleet)
        assert record.ev_grid_kw == pytest.approx(
            {a.ev_id: w_a / 1000.0, b.ev_id: w_b / 1000.0}, rel=1e-12)
        loads = 0.0 + 333.3 + 333.3            # the two households of the bus
        session_order = (loads + w_b) + w_a
        assert session_order != (loads + w_a) + w_b
        assert a.bus_id == b.bus_id
        assert record.injections[sc.topology.bus_index[a.bus_id]] == session_order

    def test_undersized_feeder_emits_congestion(self):
        cfg = small_config(
            feeder=FeederSpec(sub_districts=1, buses_per_feeder=3,
                              households_per_bus=2, line_rating=30.0),
            fleet_size=6)
        sc = generate_scenario(cfg, 1, 7)
        sc = force_evening_fleet(sc)
        res, records = record_instants(Simulation(sc, UncontrolledStrategy()))
        critical = [r for r in records if r.requests]
        assert critical, "expected at least one congestion request"
        assert any(q.criticality == 1.0 for r in critical
                   for q in r.requests)
        assert res.violations_current.sum() > 0

    def test_curtailment_acts_next_instant(self):
        cfg = small_config(
            feeder=FeederSpec(sub_districts=1, buses_per_feeder=3,
                              households_per_bus=2, line_rating=30.0),
            fleet_size=6, household_load_w=0.0)
        sc = generate_scenario(cfg, 2, 7)
        sc = force_evening_fleet(sc)
        _, records = record_instants(
            Simulation(sc, AmasStrategy(), cooperation_fraction=1.0))
        for prev, nxt in zip(records, records[1:]):
            targets = set().union(*[r.target_evs for r in prev.requests
                                    if r.criticality == 1.0]) \
                if prev.requests else set()
            for ev in targets:
                assert ev not in nxt.ev_grid_kw, \
                    f"targeted {ev} charged the instant after a +1 request"

    def test_days_zero_empty(self):
        sc = generate_scenario(small_config(), 0, 7)
        res, records = record_instants(Simulation(sc, AmasStrategy()))
        assert res.days == 0
        assert res.cost.shape == (0, 3)
        assert records == []

    def test_determinism_same_seed(self):
        def run():
            sc = generate_scenario(small_config(), 4, 5)
            res = Simulation(sc, AmasStrategy()).run()
            return (res.cost.tobytes(), res.mean_reward_ev.tobytes(),
                    res.final_soc.tobytes())
        assert run() == run()

    def test_flood_rounds_within_diameter(self):
        cfg = small_config(
            feeder=FeederSpec(sub_districts=2, buses_per_feeder=4,
                              households_per_bus=2, line_rating=30.0),
            fleet_size=8)
        sc = generate_scenario(cfg, 1, 7)
        sc = force_evening_fleet(sc)
        _, records = record_instants(Simulation(sc, UncontrolledStrategy()))
        # bus-chain depth 5 (slack->trunk->4 buses); agent-graph diameter:
        # EV -> bus -> ... -> bus -> EV across both sub-districts.
        diameter = 2 * 5 + 2
        assert all(r.flood_rounds <= diameter for r in records)


class TestGridStateMemo:
    @pytest.fixture
    def run(self, monkeypatch):
        """A congested 2-day learner run, with its instants recorded and
        every power flow the engine solves recorded by its injection
        bytes."""
        cfg = small_config(
            feeder=FeederSpec(sub_districts=1, buses_per_feeder=3,
                              households_per_bus=2, line_rating=30.0),
            fleet_size=6)
        sc = force_evening_fleet(generate_scenario(cfg, 2, 7))
        solved = []

        def record_solve(net, inj, **kw):
            solved.append(inj.tobytes())
            return solve_power_flow(net, inj, **kw)

        monkeypatch.setattr(engine, "solve_power_flow", record_solve)
        sim = Simulation(sc, AmasStrategy(), cooperation_fraction=1.0)
        return (sc, sim, *record_instants(sim), solved)

    def test_solves_each_distinct_injection_once(self, run):
        # Once per distinct vector that the certificate does not clear.
        sc, sim, _, records, solved = run
        rows = [r.injections for r in records]
        distinct = list(dict.fromkeys(inj.tobytes() for inj in rows))
        cleared = {inj.tobytes() for inj in rows
                   if certainly_within_limits(sc.topology, inj)}
        assert len(rows) > len(distinct)   # instants repeat injections
        assert cleared                     # and some are never solved
        assert solved == [key for key in distinct if key not in cleared]
        assert all(sim.judge.states[key] is sim.judge.all_clear
                   for key in cleared)

    def test_traces_and_violations_match_fresh_solves(self, run):
        sc, _, res, records, _ = run
        net = sc.topology
        current = np.zeros(sc.days, dtype=np.int64)
        voltage = np.zeros(sc.days, dtype=np.int64)
        for g, r in enumerate(records):
            sol = solve_power_flow(net, r.injections)
            assert r.converged == sol.converged
            v = sol.bus_voltages
            day = min(g // sc.m, sc.days - 1)
            current[day] += (not sol.converged
                             or (sol.line_currents > net.i_rated).any())
            voltage[day] += (not sol.converged
                             or ((v < net.v_min) | (v > net.v_max)).any())
        assert current.sum() > 0
        assert current.tolist() == res.violations_current.tolist()
        assert voltage.tolist() == res.violations_voltage.tolist()

    def test_cached_criticalities_are_read_only(self, run):
        _, sim, _, _, _ = run
        for _, line_crit, bus_crit, _, _ in sim.judge.states.values():
            for crit in (line_crit, bus_crit):
                with pytest.raises(ValueError, match="read-only"):
                    crit[0] = 1.0

    def test_oracle_verdicts_agree(self, run, monkeypatch):
        # The oracle's judge gives False to every vector the simulation
        # judged critical, and True to every one it cleared.
        sc, sim, _, _, _ = run
        judges = []

        class Recorded(GridJudge):
            def __init__(self, *args):
                super().__init__(*args)
                judges.append(self)

        monkeypatch.setattr(strategies, "GridJudge", Recorded)
        centralized_oracle(sc, mode="greedy")
        assert len(judges) == 1
        states = sim.judge.states.items()
        critical = [key for key, (converged, _, _, line_any, bus_any)
                    in states if not converged or line_any or bus_any]
        cleared = [key for key, state in states
                   if state is sim.judge.all_clear]
        assert critical and cleared
        for keys, verdict in ((critical, False), (cleared, True)):
            for key in keys:
                assert judges[0].within_limits(np.frombuffer(key)) is verdict

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_injections_raise(self, bad):
        sc = generate_scenario(small_config(), 1, 7)
        sc.site_load_profiles[0, 0] = bad
        sim = Simulation(sc, UncontrolledStrategy())
        with pytest.raises(ValueError, match="finite"):
            sim.run_instant(0)


class TestIngestProfile:
    def write(self, tmp_path, rows, header="instant,value"):
        path = tmp_path / "p.csv"
        lines = [header] + [f"{i},{v}" for i, v in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        rows = [(i, 0.1 * (i + 1)) for i in range(4)]
        vec = ingest_profile(self.write(tmp_path, rows), "irradiance", 4)
        assert np.allclose(vec, [0.1, 0.2, 0.3, 0.4])

    def test_price_normalized(self, tmp_path):
        rows = [(0, 0.1), (1, 0.4)]
        vec = ingest_profile(self.write(tmp_path, rows), "price", 2)
        assert vec.max() == pytest.approx(1.0)
        assert vec[0] == pytest.approx(0.25)

    def test_price_explicit_c_max(self, tmp_path):
        rows = [(0, 0.1), (1, 0.4)]
        vec = ingest_profile(self.write(tmp_path, rows), "price", 2, c_max=0.8)
        assert vec[1] == pytest.approx(0.5)

    def test_length_mismatch(self, tmp_path):
        rows = [(i, 1.0) for i in range(95)]
        with pytest.raises(ProfileError, match="expected 96 rows, found 95"):
            ingest_profile(self.write(tmp_path, rows), "irradiance", 96)

    def test_bad_header(self, tmp_path):
        with pytest.raises(ProfileError, match="line 1"):
            ingest_profile(self.write(tmp_path, [(0, 1.0)], header="a,b"),
                           "price", 1)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("instant,value\n0,1.0\n1,abc\n", encoding="utf-8")
        with pytest.raises(ProfileError, match="line 3"):
            ingest_profile(str(path), "irradiance", 2)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("instant,value\n0,1.0,9\n", encoding="utf-8")
        with pytest.raises(ProfileError, match="line 2.*2 columns"):
            ingest_profile(str(path), "irradiance", 1)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            ingest_profile(self.write(tmp_path, [(0, 1.0)]), "wind", 1)


def test_default_price_profile_normalized():
    p = default_price_profile(96)
    assert p.shape == (96,)
    assert p.max() == pytest.approx(1.0)
    assert p.min() >= 0.0
