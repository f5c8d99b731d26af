"""Simulation engine: scenario generation, flooding, instant pipeline, I/O."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge import engine, strategies
from gridcharge.agents import (CriticalityRequest, EvProfile, Fleet, Roster,
                               ev_reward, request_priority,
                               sample_cooperation_targets, take_requests)
from gridcharge.engine import (GridJudge, ProfileError, Scenario,
                               ScenarioError, agent_neighbors,
                               default_price_profile, flood_requests,
                               generate_scenario, ingest_profile)
from gridcharge.gridnet import (NetworkTopology, bound_below_limit,
                                build_replicated_feeder,
                                certainly_within_limits, solve_power_flow)
from gridcharge.strategies import (AmasStrategy, UncontrolledStrategy,
                                   centralized_oracle)
from helpers import (amas, defaults, flood_by_id, forward_request,
                     plugged_in, record_instants, round_flood, simulation,
                     take_requests_per_ev, uncontrolled_accounts)
from test_grid import radial_trees, tier_clears, two_bus_net


def small_config(topology=None, **kw):
    """The `scenario` tree of 3 EVs on one chain of 3 buses of 2
    households each, under the `topology` and other overrides `kw`."""
    topology = {"buses_per_feeder": 3, "households_per_bus": 2,
                **(topology or {})}
    return defaults("scenario", **{"fleet_size": 3, **kw,
                                   "topology": topology})


def req(crit, origin, kind="line", targets=()):
    return CriticalityRequest(criticality=crit,
                              target_rows=np.array(sorted(targets),
                                                   dtype=np.int64),
                              origin_agent=origin, origin_kind=kind)


def evs_at(ev_bus):
    """The EV ids at each bus id, from ev_id -> bus id."""
    evs_at_bus = {}
    for ev, bus in ev_bus.items():
        evs_at_bus.setdefault(bus, []).append(ev)
    return evs_at_bus


def flood(net, ev_bus, initial):
    """flood_requests over `net` with EVs plugged in as ev_id -> bus id;
    what each EV received is keyed by its id."""
    return flood_by_id(agent_neighbors(net), ev_bus, initial)


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
        sc = generate_scenario(defaults("scenario"), 1, 1)
        assert len(sc.fleet) == 55
        for p in sc.fleet:
            assert (p.e_bat, p.p_max, p.eta_chrg, p.soc_target) == \
                (52.0, 7.0, 0.95, 0.8)

    def test_zero_evs_valid(self):
        sc = generate_scenario(small_config(fleet_size=0), 2, 1)
        assert sc.fleet == []
        res, records = record_instants(simulation(sc, UncontrolledStrategy()))
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
            generate_scenario(small_config(), 1, 1, price=price)

    def test_overnight_windows_never_wrap(self):
        sc = generate_scenario(defaults("scenario"), 1, 3)
        for p in sc.fleet:
            assert p.t_depart > p.t_arrive
            # evening arrival, next-morning departure
            assert p.t_depart >= sc.m

    def test_invariant_m_delta(self):
        sc = generate_scenario(small_config(instants_per_day=48), 1, 1)
        assert sc.delta_i == 30.0


class TestFloodRequests:
    def topo(self, buses=5):
        return build_replicated_feeder(defaults(
            "scenario", "topology", buses_per_feeder=buses,
            households_per_bus=1))

    def test_no_requests_zero_rounds(self):
        net = self.topo()
        received, rounds = flood(net, {"ev0": "d0b0"}, [])
        assert received == {} and rounds == 0

    def test_single_request_reaches_all_evs(self):
        net = self.topo()
        ev_bus = {f"ev{i}": f"d0b{i}" for i in range(5)}
        initial = [req(1.0, "l_d0b4", targets={0})]
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
        roster = plugged_in(agent_neighbors(self.topo()), {"ev0": "d0b0"})
        assert flood_requests(None, roster, []) == ({}, 0)

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
        `line_crits` and `bus_crits`, each naming a few EVs by row."""
        bus_ids = [b.id for b in buses]
        ev_bus = {f"ev{i}": data.draw(st.sampled_from(bus_ids))
                  for i in range(data.draw(st.integers(0, 6)))}
        targets = st.frozensets(st.integers(0, len(ev_bus) - 1),
                                max_size=3) if ev_bus else st.just(())
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


class TestRequestPath:
    """Requests name fleet rows, from their draw to the pending flags."""

    @given(tree=radial_trees(min_buses=1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_ev_rule(self, tree, data):
        # Against the per-EV rule applied to a round-by-round flood. The
        # fleet has up to 14 EVs, so its ids may sort apart from its rows
        # (ev10 before ev2); the roster holds some of them in any order,
        # with stale pending flags; each request names rows drawn from the
        # roster's grid-charging EVs in id order, and that draw names what
        # a draw over their sorted ids names from the same generator state.
        buses, lines, slack = tree
        net = NetworkTopology(buses, lines, slack)
        graph = agent_neighbors(net)
        n = data.draw(st.one_of(st.integers(0, 10), st.integers(11, 14)))
        ev_bus = {f"ev{i}": data.draw(st.sampled_from([b.id for b in buses]))
                  for i in range(n)}
        rows = data.draw(st.permutations(range(n)))[:data.draw(
            st.integers(0, n))]
        roster = plugged_in(graph, ev_bus, rows)
        flags = st.lists(st.integers(0, 1), min_size=len(rows),
                         max_size=len(rows))
        roster.set_pending([data.draw(flags), data.draw(flags)])
        ids = roster.fleet.ev_ids
        charged = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(rows), max_size=len(rows))), dtype=bool)
        pool = roster.rows[charged]
        pool = pool[np.argsort([ids[t] for t in pool.tolist()], kind="stable")]
        by_id = sorted(ids[t] for t in pool.tolist())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        initial = []
        for kind, agent in ([("line", l.id) for l in lines]
                            + [("bus", b.id) for b in buses]):
            if not data.draw(st.booleans()):
                continue
            count = data.draw(st.integers(1, 4))
            ref = np.random.default_rng()
            ref.bit_generator.state = rng.bit_generator.state
            targets = sample_cooperation_targets(pool, count, rng)
            picked = ref.choice(len(by_id), size=min(count, len(by_id)),
                                replace=False) if by_id else []
            assert [ids[t] for t in targets.tolist()] == [by_id[i]
                                                          for i in picked]
            crit = data.draw(st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0]))
            initial.append(CriticalityRequest(crit, targets, agent, kind))

        received, _ = flood_requests(graph, roster, initial)
        top = take_requests(roster, received)
        if top is None:     # no request reached the roster
            top = np.zeros(roster.size)
        plugged = {ids[t]: ev_bus[ids[t]] for t in roster.rows.tolist()}
        taken = take_requests_per_ev(
            round_flood(net, evs_at(plugged), initial)[0], ids)
        for k, t in enumerate(roster.rows.tolist()):
            want_top, curtail, force = taken.get(ids[t], (0.0, False, False))
            assert top[k] == want_top
            assert (roster.curtail[k], roster.force[k]) == (curtail, force)


def charge_one(soc, e_bat, eta, asked, pv_kwh, price, dh):
    """One EV's instant of battery physics in Python floats, with the
    guard the engine no longer needs: grid power only where the grid
    energy is positive. Returns the session sums' increments (soc, cost,
    grid energy, battery energy), the PV energy taken and the grid
    power."""
    headroom = max(0.0, (1.0 - soc) * e_bat)
    pv_in = min(pv_kwh, headroom)
    grid_in = min(eta * asked * dh, headroom - pv_in)
    grid_kw = grid_in / (eta * dh) if grid_in > 0.0 else 0.0
    stored = pv_in + grid_in
    return (stored / e_bat, price * grid_kw * dh, grid_in, stored), pv_in, grid_kw


def bits(values) -> bytes:
    """The float64 bytes of `values`, so that equality also tells 0.0
    from -0.0."""
    return np.asarray(values, dtype=float).tobytes()


class TestCharge:
    """`engine.charge` over drawn roster states, against `charge_one`."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_guarded_per_ev_loop(self, data):
        m = data.draw(st.sampled_from([24, 96, 288]))
        n = data.draw(st.integers(1, 8))
        profiles = [EvProfile(
            ev_id=f"ev{r}", bus_id="b", e_bat=data.draw(st.floats(1.0, 100.0)),
            p_max=data.draw(st.floats(0.5, 22.0)),
            eta_chrg=data.draw(st.floats(0.5, 1.0)), soc_start=0.0,
            soc_target=1.0, t_arrive=0, t_depart=1) for r in range(n)]
        roster = Roster(Fleet(profiles, m), range(n))

        def column(values):
            return np.array(data.draw(st.lists(values, min_size=n,
                                               max_size=n)))
        # Full, nearly full and any state of charge; the grid energy sum
        # starts at 0, so that it ends at this instant's grid energy.
        roster.soc[:] = column(st.one_of(st.just(1.0), st.floats(0.0, 1.0),
                                         st.floats(1.0 - 1e-12, 1.0)))
        roster.cost[:] = column(st.floats(0.0, 100.0))
        roster.battery_energy[:] = column(st.floats(0.0, 100.0))
        asked = roster.p_max * column(st.booleans())
        pv_kwh = column(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
        price = data.draw(st.floats(0.0, 1.0))
        dh = 1440.0 / m / 60.0
        before = roster.session_floats.tolist()

        # The engine passes the price and dh as 0-d arrays.
        as_0d = data.draw(st.booleans())
        pv_in, grid_kw = engine.charge(
            roster, asked, pv_kwh, np.array(price) if as_0d else price,
            np.array(dh) if as_0d else dh, roster.eta_chrg * dh)
        grid_in = roster.grid_energy
        assert (grid_in >= 0.0).all()
        assert ((grid_kw == 0.0) == (grid_in == 0.0)).all()
        for r in range(n):
            step, want_pv, want_kw = charge_one(
                before[0][r], roster.e_bat[r], roster.eta_chrg[r], asked[r],
                pv_kwh[r], price, dh)
            assert bits(pv_in[r]) == bits(want_pv)
            assert bits(grid_kw[r]) == bits(want_kw)
            assert bits(roster.session_floats[:, r]) == bits(
                [was[r] + d for was, d in zip(before, step)])


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
        res = simulation(sc, amas()).run()
        for d in range(3):
            for j, p in enumerate(sc.fleet):
                gained = (res.final_soc[d, j] - p.soc_start) * p.e_bat
                assert gained == pytest.approx(res.battery_energy[d, j],
                                               abs=1e-9)

    def test_no_phantom_injections(self):
        sc = generate_scenario(small_config(), 1, 7)
        _, records = record_instants(simulation(sc, UncontrolledStrategy()))
        for r in records:
            # an instant's grid-side EV power lies within what the fleet draws
            total_kw = sum(r.ev_grid_kw.values())
            assert total_kw >= 0.0
            if r.ev_grid_kw:
                assert total_kw <= 7.0 / 0.95 * len(sc.fleet) + 1e-9

    def test_no_request_instants_book_the_cost_reward(self):
        # With no request delivered, each EV that charged books at its
        # reward cell exactly the bits of `ev_reward(price, 0.0)`: the
        # cost branch of the reward of one row with no criticality.
        sc = generate_scenario(small_config(), 2, 7)
        sim = simulation(sc, amas())
        run_instant, feedback = sim.run_instant, sim.strategy.feedback
        instant, booked = [], []

        def on_instant(g):
            instant.append(g)
            run_instant(g)

        def on_feedback(roster, charged, price, top, pv_w):
            feedback(roster, charged, price, top, pv_w)
            if top is None:
                cells = roster.flat[np.asarray(charged, dtype=bool)]
                booked.append((instant[-1], sim.fleet.reward.take(cells)))

        sim.run_instant, sim.strategy.feedback = on_instant, on_feedback
        sim.run()
        assert sum(len(rewards) for _, rewards in booked) > 0
        for g, rewards in booked:
            want = bits(ev_reward(sc.price_profile[g % sc.m], 0.0))
            assert all(bits(r) == want for r in rewards.tolist())

    def test_roster_books_as_a_per_ev_loop(self):
        # The second EV plugs in at the last instant of the first, whose
        # session leaves the roster right after it; the third EV's window
        # crosses midnight. The fourth stays one instant, and the fifth
        # exactly m, so it leaves at the instant before it plugs in again.
        # The roster's session sums must book exactly what one EV and one
        # instant at a time books.
        sc = generate_scenario(small_config(instants_per_day=24, fleet_size=5),
                               3, 7)
        windows = [(9, 13), (12, 18), (21, 27), (5, 6), (14, 38)]
        sc.fleet = [p._replace(t_arrive=a, t_depart=d, e_bat=20.0)
                    for p, (a, d) in zip(sc.fleet, windows)]
        res = simulation(sc, UncontrolledStrategy()).run()
        for name, want in uncontrolled_accounts(sc).items():
            assert np.array_equal(getattr(res, name), want), name
        assert (res.battery_energy > res.grid_energy).all()  # PV counted

    @pytest.mark.parametrize("make", [
        lambda sc: amas(), lambda sc: UncontrolledStrategy(),
        lambda sc: strategies.ScheduleStrategy(centralized_oracle(sc))],
        ids=["AmasStrategy", "UncontrolledStrategy", "ScheduleStrategy"])
    def test_batched_close_books_as_an_eager_close(self, make):
        # The first EV leaves after instant 12 and the second plugs in at
        # 13; the third's window crosses midnight, the fourth stays one
        # instant, and the fifth exactly m, so it plugs in again at the
        # instant after it leaves. The last day's evening sessions end in
        # the tail. Every EV starts low enough that each strategy charges
        # it from the grid. Closing every session right after the instant
        # it leaves must book the same bits as closing them in batches
        # before each plug-in and at the end of the run.
        sc = generate_scenario(small_config(instants_per_day=24, fleet_size=5),
                               3, 7)
        windows = [(9, 13), (13, 18), (21, 27), (5, 6), (14, 38)]
        sc.fleet = [p._replace(t_arrive=a, t_depart=d, soc_start=0.1)
                    for p, (a, d) in zip(sc.fleet, windows)]

        def run(eager):
            strategy = make(sc)
            sim = simulation(sc, strategy)
            batches, session_end = [], strategy.session_end

            def on_session_end(fleet, rows):
                batches.append(rows.tolist())
                session_end(fleet, rows)

            def step(g):
                run_instant(g)
                sim.close_sessions()

            strategy.session_end = on_session_end
            if eager:
                run_instant, sim.run_instant = sim.run_instant, step
            sim.run()
            booked = [sim._session_results, sim.mean_reward_ev]
            if isinstance(strategy, AmasStrategy):
                booked += [strategy.bandit.precision, strategy.bandit.response,
                           strategy.pv.precision, strategy.pv.response,
                           json.dumps(strategy.to_checkpoint(), sort_keys=True)]
            return [np.asarray(a).tobytes() for a in booked], batches

        batched, batches = run(eager=False)
        eager, one_by_one = run(eager=True)
        assert batched == eager
        assert sorted(sum(batches, [])) == sorted(sum(one_by_one, []))
        assert len(sum(batches, [])) == len(sc.fleet) * sc.days
        assert all(len(set(rows)) == len(rows) for rows in batches)
        assert len(batches) < len(one_by_one)

    @pytest.mark.parametrize("strategy", [amas, UncontrolledStrategy],
                             ids=["AmasStrategy", "UncontrolledStrategy"])
    def test_run_leaves_the_fleet_block_as_built(self, strategy):
        # The lines congest, every session crosses midnight and the last
        # ones run into the tail. The roster owns all session state, so
        # the fleet's block stays what each session starts from.
        cfg = small_config({"line_rating": 30.0}, fleet_size=6)
        sim = simulation(force_evening_fleet(generate_scenario(cfg, 2, 7)),
                         strategy())
        built = sim.fleet._block.copy()
        res = sim.run()
        assert res.violations_current.sum() > 0
        assert np.array_equal(sim.fleet._block, built)

    def test_recorder_books_the_grid_energy(self):
        # The recorder's grid power, times eta * dh and summed over each
        # session, gives back the run's grid energy, and it opens one
        # record per instant up to the end of the last session.
        sc = generate_scenario(small_config(), 3, 7)
        res, records = record_instants(simulation(sc, UncontrolledStrategy()))
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

    def test_baselines_hold_no_learner_tables(self):
        # Only the learner reads the played mask, the PV readings and the
        # decision tables, so after a baseline run the fleet and the
        # strategy hold no array of n * m cells or more but the fleet's
        # rewards and the oracle's plans. The learner books both of its
        # learning tables.
        sc = generate_scenario(small_config(), 2, 7)
        cells = len(sc.fleet) * sc.m
        for strategy in (UncontrolledStrategy(),
                         strategies.ScheduleStrategy(centralized_oracle(sc)),
                         amas()):
            sim = simulation(sc, strategy)
            res = sim.run()
            assert (sim.fleet.reward > 0.0).any()
            assert np.isfinite(res.mean_reward_ev).all()
            if isinstance(strategy, AmasStrategy):
                assert strategy.played.any() and strategy.pv_obs.any()
                continue
            tables = {f"{type(owner).__name__}.{name}"
                      for owner in (sim.fleet, strategy)
                      for name, value in vars(owner).items()
                      if isinstance(value, np.ndarray) and value.size >= cells}
            want = {"Fleet.reward"}
            if isinstance(strategy, strategies.ScheduleStrategy):
                want.add("ScheduleStrategy.plans")
            assert tables == want

    def test_idle_instants_clear_as_the_tier(self):
        # With no EV plugged in, the bound is Σ|idle| and its slack: on
        # the reference feeder rated 500 A, it clears the instants of day
        # that the tier clears, and those alone.
        cfg = defaults("scenario", topology={"line_rating": 500.0})
        sim = simulation(generate_scenario(cfg, 1, 1), UncontrolledStrategy())
        by_bound = [bound_below_limit(sim.net, bound, 0.0, 0.0)
                    for bound in sim._idle_bound]
        by_tier = [tier_clears(sim.net, inj) for inj in sim._idle_inj]
        assert by_bound == by_tier
        assert 0 < sum(by_bound) < len(by_bound)

    def test_idle_injections_equal_a_site_loop(self):
        # Two sub-districts, unequal loads and panels: at every instant
        # with no EV plugged in, the judged vector is each bus's loads,
        # then minus its sites' PV, in site order.
        cfg = small_config({"sub_districts": 2}, fleet_size=4)
        sc = generate_scenario(cfg, 2, 7)
        rng = np.random.default_rng(3)
        sc.site_load_profiles = rng.uniform(0.0, 900.0,
                                            sc.site_load_profiles.shape)
        sc.site_pv_area = rng.uniform(5.0, 40.0, len(sc.site_pv_area))
        plugged = {d * sc.m + p.t_arrive + l for p in sc.fleet
                   for d in range(sc.days) for l in range(p.window_length)}
        _, records = record_instants(simulation(sc, UncontrolledStrategy()))
        net, idle = sc.topology, [r for r in records if r.g not in plugged]
        assert idle and any(sc.irradiance_profile[r.g % sc.m] > 0.0
                            for r in idle)
        for r in idle:
            i = r.g % sc.m
            want = [0.0] * net.n_buses
            for s, bus in enumerate(sc.site_bus.tolist()):
                want[bus] += float(sc.site_load_profiles[s, i])
            for s, bus in enumerate(sc.site_bus.tolist()):
                want[bus] -= (float(sc.site_pv_area[s])
                              * float(sc.site_pv_efficiency[s])
                              * float(sc.irradiance_profile[i]))
            assert r.injections.tobytes() == np.array(want).tobytes()

    def test_uncontrolled_reaches_target(self):
        sc = generate_scenario(small_config(), 2, 7)
        res = simulation(sc, UncontrolledStrategy()).run()
        assert (res.final_soc >= 0.8 - 1e-9).all()

    def test_uncontrolled_cost_closed_form(self):
        # Generous network, zero PV: charging runs at p_max from arrival for
        # exactly ceil(need / per-instant energy) instants (the last instant
        # still draws full power), so the cost is the arrival-anchored
        # tariff sum over those instants.
        sc = generate_scenario(small_config(fleet_size=1), 1, 7,
                               irradiance=np.zeros(96))
        res = simulation(sc, UncontrolledStrategy()).run()
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
        cfg = small_config(fleet_size=2, household_load_w=333.3)
        sc = generate_scenario(cfg, 1, 7, irradiance=np.zeros(96))
        a, b = sc.fleet
        sc.fleet = [a._replace(t_arrive=40, t_depart=60, p_max=7.0),
                    b._replace(t_arrive=38, t_depart=60, p_max=3.0)]
        record = record_instants(simulation(sc, UncontrolledStrategy()))[1][40]
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
        cfg = small_config({"line_rating": 30.0}, fleet_size=6)
        sc = generate_scenario(cfg, 1, 7)
        sc = force_evening_fleet(sc)
        res, records = record_instants(simulation(sc, UncontrolledStrategy()))
        critical = [r for r in records if r.requests]
        assert critical, "expected at least one congestion request"
        assert any(q.criticality == 1.0 for r in critical
                   for q in r.requests)
        assert res.violations_current.sum() > 0

    def test_curtailment_acts_next_instant(self):
        cfg = small_config({"line_rating": 30.0}, fleet_size=6,
                           household_load_w=0.0)
        sc = generate_scenario(cfg, 2, 7)
        sc = force_evening_fleet(sc)
        _, records = record_instants(
            simulation(sc, amas(), cooperation_fraction=1.0))
        for prev, nxt in zip(records, records[1:]):
            targets = {sc.fleet[t].ev_id for r in prev.requests
                       if r.criticality == 1.0
                       for t in r.target_rows.tolist()}
            for ev in targets:
                assert ev not in nxt.ev_grid_kw, \
                    f"targeted {ev} charged the instant after a +1 request"

    def test_days_zero_empty(self):
        sc = generate_scenario(small_config(), 0, 7)
        res, records = record_instants(simulation(sc, amas()))
        assert res.sc.days == 0
        assert res.cost.shape == (0, 3)
        assert records == []

    def test_determinism_same_seed(self):
        def run():
            sc = generate_scenario(small_config(), 4, 5)
            res = simulation(sc, amas()).run()
            return (res.cost.tobytes(), res.mean_reward_ev.tobytes(),
                    res.final_soc.tobytes())
        assert run() == run()

    def test_cooperation_pool_in_id_order(self, monkeypatch):
        # Twelve EVs, so that ids sort apart from rows (ev10 before ev2).
        # Each request draws from the EVs that charged at its instant in
        # id order, and names what a draw over their sorted ids names from
        # the same generator state.
        cfg = small_config({"sub_districts": 2, "line_rating": 30.0},
                           fleet_size=12)
        sc = force_evening_fleet(generate_scenario(cfg, 1, 7))
        draws, sample = [], engine.sample_cooperation_targets

        def spy(pool, count, rng):
            ref = np.random.default_rng()
            ref.bit_generator.state = rng.bit_generator.state
            draws.append((pool, count, ref, sample(pool, count, rng)))
            return draws[-1][-1]

        monkeypatch.setattr(engine, "sample_cooperation_targets", spy)
        _, records = record_instants(simulation(sc, UncontrolledStrategy(),
                                                cooperation_fraction=0.3))
        ids = [p.ev_id for p in sc.fleet]
        drawn = iter(draws)
        apart = 0
        for r in records:
            for q in r.requests:
                pool, count, ref, targets = next(drawn)
                assert q.target_rows is targets
                names = [ids[t] for t in pool.tolist()]
                assert names == sorted(r.ev_grid_kw)
                apart += pool.tolist() != sorted(pool.tolist())
                picked = ref.choice(len(names), size=min(count, len(names)),
                                    replace=False) if names else []
                assert [ids[t] for t in targets.tolist()] == [names[i]
                                                              for i in picked]
        assert next(drawn, None) is None
        assert apart

    def test_flood_rounds_within_diameter(self):
        cfg = small_config({"sub_districts": 2, "buses_per_feeder": 4,
                            "line_rating": 30.0}, fleet_size=8)
        sc = generate_scenario(cfg, 1, 7)
        sc = force_evening_fleet(sc)
        _, records = record_instants(simulation(sc, UncontrolledStrategy()))
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
        cfg = small_config({"line_rating": 30.0}, fleet_size=6)
        sc = force_evening_fleet(generate_scenario(cfg, 2, 7))
        solved = []

        def record_solve(net, inj, **kw):
            solved.append(inj.tobytes())
            return solve_power_flow(net, inj, **kw)

        monkeypatch.setattr(engine, "solve_power_flow", record_solve)
        sim = simulation(sc, amas(), cooperation_fraction=1.0)
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
        assert all(sim.judge.state(np.frombuffer(key)) is sim.judge.all_clear
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
        sc, sim, _, records, _ = run
        judges = []

        class Recorded(GridJudge):
            def __init__(self, *args):
                super().__init__(*args)
                judges.append(self)

        monkeypatch.setattr(strategies, "GridJudge", Recorded)
        centralized_oracle(sc)
        assert len(judges) == 1
        states = {r.injections.tobytes(): sim.judge.state(r.injections)
                  for r in records}.items()
        critical = [key for key, (converged, _, _, line_any, bus_any)
                    in states if not converged or line_any or bus_any]
        cleared = [key for key, state in states
                   if state is sim.judge.all_clear]
        assert critical and cleared
        for keys, verdict in ((critical, False), (cleared, True)):
            for key in keys:
                assert judges[0].within_limits(np.frombuffer(key)) is verdict

    def test_every_judged_vector_is_kept(self, monkeypatch):
        # A vector not in the memo goes to the certificate once, whose
        # tier clears a light one and whose segment sums clear one at the
        # limit; only a vector neither clears is solved. Each is kept by
        # its bytes, and a later ask reads it from the memo.
        net = two_bus_net()
        asked, solved = [], []

        def certify(net, inj):
            asked.append(inj.tobytes())
            return certainly_within_limits(net, inj)

        def solve(net, inj):
            solved.append(inj.tobytes())
            return solve_power_flow(net, inj)

        monkeypatch.setattr(engine, "certainly_within_limits", certify)
        judge = GridJudge(net, solve)
        limit = net._total_limit
        light = np.array([0.0, 0.5 * limit])
        certified = np.array([0.0, limit])
        heavy = np.array([0.0, 1.2 * 230.0**2 / (4 * 0.1)])
        assert tier_clears(net, light) and not tier_clears(net, certified)
        assert judge.state(light) is judge.all_clear
        assert judge.state(certified) is judge.all_clear
        assert not judge.within_limits(heavy)
        keys = [light.tobytes(), certified.tobytes(), heavy.tobytes()]
        assert list(judge.states) == keys
        assert asked == keys
        assert solved == [heavy.tobytes()]
        for inj in (light, certified, heavy):
            assert judge.state(inj) is judge.states[inj.tobytes()]
        assert asked == keys
        assert solved == [heavy.tobytes()]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_injections_raise(self, bad):
        sc = generate_scenario(small_config(), 1, 7)
        sc.site_load_profiles[0, 0] = bad
        sim = simulation(sc, UncontrolledStrategy())
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

    def test_price_at_c_max_normalizes_to_one(self, tmp_path):
        rows = [(0, 0.1), (1, 0.3)]
        vec = ingest_profile(self.write(tmp_path, rows), "price", 2, c_max=0.3)
        assert vec[1] == 1.0

    def test_price_just_above_c_max_names_line(self, tmp_path):
        # An ulp-sized excess is still an excess: it would normalize above 1.
        rows = [(0, 0.5), (1, 1.0000000000005)]
        with pytest.raises(ProfileError,
                           match=r"line 3: price 1\.0000000000005 exceeds"):
            ingest_profile(self.write(tmp_path, rows), "price", 2, c_max=1.0)

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

    @pytest.mark.parametrize("kind", ["price", "irradiance"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_names_line(self, tmp_path, kind, bad):
        path = tmp_path / "p.csv"
        path.write_text(f"instant,value\n0,1.0\n1,{bad}\n", encoding="utf-8")
        with pytest.raises(ProfileError, match=f"line 3: non-finite.*{bad}"):
            ingest_profile(str(path), kind, 2)

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
