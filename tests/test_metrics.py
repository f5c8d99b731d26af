"""Evaluation metrics and the comparison strategies (uncontrolled, oracle)."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge.agents import Fleet, required_instants
from gridcharge.engine import (ScenarioConfig, Simulation, generate_scenario)
from gridcharge.gridnet import FeederSpec, solve_power_flow
from gridcharge.metrics import (convergence_day, fairness_index,
                                mean_daily_reward, per_unit_costs)
from gridcharge.strategies import (AmasStrategy, ScheduleStrategy,
                                   UncontrolledStrategy, _FeasibilityChecker,
                                   _true_pv_local, centralized_oracle,
                                   uncontrolled_action)


class TestFairnessIndex:
    def test_all_equal_is_one(self):
        assert fairness_index([0.4, 0.4, 0.4]) == 1.0

    def test_spec_example(self):
        assert fairness_index([1.0, 3.0]) == pytest.approx(0.8)

    def test_all_zero_is_one(self):
        assert fairness_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fairness_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fairness_index([-0.1, 1.0])

    @given(scale=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_and_bounds(self, scale, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.01, 1.0, size=8)
        f = fairness_index(costs)
        assert 0.0 < f <= 1.0
        assert fairness_index(scale * costs) == pytest.approx(f, rel=1e-9)

    def test_population_std_not_sample(self):
        # {1, 3}: population sigma = 1 -> 0.8; sample sigma would give ~0.667.
        assert fairness_index([1.0, 3.0]) == pytest.approx(0.8, abs=1e-12)


class TestMeanDailyReward:
    def test_all_ones(self):
        assert mean_daily_reward(np.ones((2, 3))) == [1.0, 1.0]

    def test_balanced(self):
        assert mean_daily_reward(np.array([[1.0, -1.0]])) == [0.0]

    def test_empty_day_absent(self):
        arr = np.array([[np.nan, np.nan], [0.5, np.nan]])
        assert mean_daily_reward(arr) == [None, 0.5]


class TestPerUnitCosts:
    def test_excludes_zero_energy(self):
        cost = np.array([[1.0, 0.0]])
        energy = np.array([[2.0, 0.0]])
        assert np.allclose(per_unit_costs(cost, energy), [0.5])

    def test_day_slice(self):
        cost = np.array([[1.0], [3.0]])
        energy = np.array([[1.0], [1.0]])
        assert np.allclose(per_unit_costs(cost, energy, slice(1, 2)), [3.0])


class TestConvergenceDay:
    def test_settles(self):
        trace = [0.1, 0.3, 0.5] + [0.7] * 20
        assert convergence_day(trace) == 4

    def test_never_settles(self):
        rng = np.random.default_rng(0)
        trace = rng.uniform(-1, 1, 40).tolist()
        trace[-1] = 5.0  # last value far from the rest of the plateau window
        assert convergence_day(trace, tol=0.001) is None

    def test_too_short(self):
        assert convergence_day([0.5] * 5) is None

    def test_ignores_none_days(self):
        trace = [None, 0.2] + [0.6] * 15
        assert convergence_day(trace) == 3


def _profile_state(soc):
    """A one-row fleet in session at the given SoC."""
    from gridcharge.agents import EvProfile, Fleet
    p = EvProfile(ev_id="e", bus_id="b", e_bat=52.0, p_max=7.0, eta_chrg=0.95,
                  soc_start=0.5, soc_target=0.8, t_arrive=0, t_depart=10)
    fleet = Fleet([p], 10)
    fleet.plug_in([0], 0)
    fleet.soc[0] = soc
    return fleet, [0]


class TestUncontrolledAction:
    def test_below_target_full_power(self):
        fleet, rows = _profile_state(0.5)
        assert uncontrolled_action(fleet, rows).tolist() == [7.0]

    def test_at_target_idle(self):
        fleet, rows = _profile_state(0.8)
        assert uncontrolled_action(fleet, rows).tolist() == [0.0]

    def test_price_blind(self):
        # The decide hook ignores prices and requests entirely.
        fleet, rows = _profile_state(0.5)
        strat = UncontrolledStrategy()
        a = strat.decide(fleet, rows, 15.0).tolist()
        fleet.curtail[0] = fleet.force[0] = True
        b = strat.decide(fleet, rows, 15.0).tolist()
        assert a == b == [7.0]


def tiny_scenario(n_ev=2, rating=1e6, m=12, seed=3, window=8,
                  soc_target=0.56):
    cfg = ScenarioConfig(
        feeder=FeederSpec(sub_districts=1, buses_per_feeder=2,
                          households_per_bus=2, line_rating=rating),
        fleet_size=n_ev,
        ev=__import__("gridcharge.engine", fromlist=["EvParams"]).EvParams(
            soc_target=soc_target, arrival_mean_hour=10.0, arrival_std_hour=0.0,
            depart_mean_hour=10.0 + window * (24.0 / m), depart_std_hour=0.0),
        m=m,
        household_load_w=0.0,
        irradiance_profile=np.zeros(m),
    )
    return generate_scenario(cfg, 1, seed)


def sequential_greedy(sc):
    """The greedy oracle tested one candidate instant per 1-D power flow:
    EVs by flexibility, each taking its cheapest instants in turn while the
    network stays within limits. Returns the plans and the rejections."""
    net, m = sc.topology, sc.m
    base = _FeasibilityChecker(sc).base
    pv_ahead = np.array([_true_pv_local(sc, p).sum() for p in sc.fleet])
    needs = required_instants(Fleet(sc.fleet, m), np.arange(len(sc.fleet)),
                              sc.delta_i, pv_ahead, 0, 0)
    order = sorted(range(len(sc.fleet)),
                   key=lambda j: (sc.fleet[j].window_length - needs[j],
                                  sc.fleet[j].ev_id))
    charging_at = {i: [] for i in range(m)}
    plans, rejected = {}, 0
    for j in order:
        p = sc.fleet[j]
        prices = sc.price_profile[(p.t_arrive + np.arange(p.window_length))
                                  % m]
        plan = np.zeros(p.window_length, dtype=bool)
        for l in sorted(range(p.window_length), key=lambda l: (prices[l], l)):
            if plan.sum() == needs[j]:
                break
            i = (p.t_arrive + l) % m
            inj = base[i].copy()
            for q in charging_at[i] + [p]:
                inj[net.bus_index[q.bus_id]] += q.p_max * 1000.0
            sol = solve_power_flow(net, inj)
            v = sol.bus_voltages
            if (sol.converged and not (sol.line_currents > net.i_rated).any()
                    and not ((v < net.v_min) | (v > net.v_max)).any()):
                plan[l] = True
                charging_at[i].append(p)
            else:
                rejected += 1
        plans[p.ev_id] = plan
    return plans, rejected


def small_feeder(n_ev, rating, sub_districts=2, seed=1):
    cfg = ScenarioConfig(
        feeder=FeederSpec(sub_districts=sub_districts, buses_per_feeder=3,
                          households_per_bus=3, line_rating=rating),
        fleet_size=n_ev, m=24)
    return generate_scenario(cfg, 1, seed)


class TestCentralizedOracle:
    @pytest.mark.parametrize("make", [
        lambda: tiny_scenario(n_ev=2, rating=40.0, soc_target=0.53),
        lambda: tiny_scenario(n_ev=4, rating=60.0, soc_target=0.6),
        lambda: small_feeder(12, 60.0),
        lambda: small_feeder(18, 100.0, seed=2),
        lambda: small_feeder(9, 40.0, sub_districts=3, seed=4),
    ])
    def test_greedy_matches_sequential_reference(self, make):
        sc = make()
        expected, rejected = sequential_greedy(sc)
        assert rejected > 0     # the ratings bind
        plans = centralized_oracle(sc, mode="greedy")
        assert plans.keys() == expected.keys()
        for ev, plan in expected.items():
            assert plans[ev].tolist() == plan.tolist()


    def test_zero_evs(self):
        sc = tiny_scenario(n_ev=0)
        assert centralized_oracle(sc, mode="exhaustive") == {}
        assert centralized_oracle(sc, mode="greedy") == {}

    def test_unconstrained_picks_cheapest(self):
        sc = tiny_scenario(n_ev=1)
        p = sc.fleet[0]
        plans = centralized_oracle(sc, mode="exhaustive")
        plan = plans[p.ev_id]
        k = int(plan.sum())
        prices = [sc.price_profile[(p.t_arrive + l) % sc.m]
                  for l in range(p.window_length)]
        cheapest = sorted(range(p.window_length), key=lambda l: (prices[l], l))
        assert sorted(np.flatnonzero(plan)) == sorted(cheapest[:k])

    def test_greedy_matches_exhaustive_unconstrained(self):
        sc = tiny_scenario(n_ev=3)
        g = centralized_oracle(sc, mode="greedy")
        e = centralized_oracle(sc, mode="exhaustive")
        dh = sc.delta_i / 60.0

        def cost(plans):
            total = 0.0
            for p in sc.fleet:
                for l in np.flatnonzero(plans[p.ev_id]):
                    total += sc.price_profile[(p.t_arrive + l) % sc.m] \
                        * p.p_max * dh
            return total
        assert cost(g) == pytest.approx(cost(e))

    def test_constrained_staggering(self):
        # Rating admits one charger at a time; the exhaustive plan must put
        # the two EVs on disjoint instants and match a brute-force search.
        sc = tiny_scenario(n_ev=2, rating=40.0, soc_target=0.53)
        plans = centralized_oracle(sc, mode="exhaustive")
        a, b = sc.fleet
        ia = {(a.t_arrive + l) % sc.m for l in np.flatnonzero(plans[a.ev_id])}
        ib = {(b.t_arrive + l) % sc.m for l in np.flatnonzero(plans[b.ev_id])}
        assert not (ia & ib)

        # Brute force over all joint assignments of the needed sizes.
        from gridcharge.agents import Fleet, required_instants
        ka, kb = required_instants(Fleet([a, b], sc.m), [0, 1], sc.delta_i,
                                   0.0, 0, 0).tolist()
        prices_a = [sc.price_profile[(a.t_arrive + l) % sc.m]
                    for l in range(a.window_length)]
        prices_b = [sc.price_profile[(b.t_arrive + l) % sc.m]
                    for l in range(b.window_length)]
        best = None
        for ca in itertools.combinations(range(a.window_length), ka):
            for cb in itertools.combinations(range(b.window_length), kb):
                sa = {(a.t_arrive + l) % sc.m for l in ca}
                sb = {(b.t_arrive + l) % sc.m for l in cb}
                if sa & sb:
                    continue
                c = sum(prices_a[l] for l in ca) + sum(prices_b[l] for l in cb)
                if best is None or c < best - 1e-12:
                    best = c
        got = sum(prices_a[l] for l in np.flatnonzero(plans[a.ev_id])) + \
            sum(prices_b[l] for l in np.flatnonzero(plans[b.ev_id]))
        assert got == pytest.approx(best)

    def test_exhaustive_size_limit(self):
        cfg = ScenarioConfig(
            feeder=FeederSpec(sub_districts=1, buses_per_feeder=4,
                              households_per_bus=4),
            fleet_size=13, m=12)
        sc = generate_scenario(cfg, 1, 1)
        with pytest.raises(ValueError, match="greedy"):
            centralized_oracle(sc, mode="exhaustive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            centralized_oracle(tiny_scenario(n_ev=1), mode="magic")

    def test_schedule_strategy_replays_plan(self):
        sc = tiny_scenario(n_ev=2)
        plans = centralized_oracle(sc, mode="greedy")
        res = Simulation(sc, ScheduleStrategy(plans),
                         keep_traces=False).run()
        dh = sc.delta_i / 60.0
        for j, p in enumerate(sc.fleet):
            expected = sum(sc.price_profile[(p.t_arrive + l) % sc.m]
                           * p.p_max * dh
                           for l in np.flatnonzero(plans[p.ev_id]))
            assert res.cost[0, j] == pytest.approx(expected, abs=1e-9)
