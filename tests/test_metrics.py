"""Evaluation metrics and the comparison strategies (uncontrolled, oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge import engine, strategies
from gridcharge.engine import GridJudge, generate_scenario, instant_tables
from gridcharge.gridnet import certainly_within_limits, solve_power_flow
from gridcharge.metrics import (convergence_day, fairness_index,
                                mean_daily_reward, per_unit_costs)
from gridcharge.strategies import (AmasStrategy, ScheduleStrategy,
                                   UncontrolledStrategy, centralized_oracle,
                                   uncontrolled_action)
from helpers import (defaults, oracle_needs, optimal_plans, simulation,
                     site_tables, within_limits)


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
    """The roster of a one-row fleet in session at the given SoC."""
    from gridcharge.agents import EvProfile, Fleet, Roster
    p = EvProfile(ev_id="e", bus_id="b", e_bat=52.0, p_max=7.0, eta_chrg=0.95,
                  soc_start=0.5, soc_target=0.8, t_arrive=0, t_depart=10)
    fleet = Fleet([p], 10)
    fleet.plug_in([0])
    roster = Roster(fleet, [0])
    roster.soc[0] = soc
    return roster


class TestUncontrolledAction:
    def test_below_target_full_power(self):
        roster = _profile_state(0.5)
        assert uncontrolled_action(roster).tolist() == [7.0]

    def test_at_target_idle(self):
        roster = _profile_state(0.8)
        assert uncontrolled_action(roster).tolist() == [0.0]

    def test_price_blind(self):
        # The decide hook ignores prices and requests entirely.
        roster = _profile_state(0.5)
        strat = UncontrolledStrategy()
        a = strat.decide(roster).tolist()
        roster.curtail[0] = roster.force[0] = True
        b = strat.decide(roster).tolist()
        assert a == b == [7.0]


def tiny_scenario(n_ev=2, rating=1e6, m=12, seed=3, window=8,
                  soc_target=0.56):
    cfg = defaults(
        "scenario", fleet_size=n_ev,
        topology={"buses_per_feeder": 2, "households_per_bus": 2,
                  "line_rating": rating},
        ev={"soc_target": soc_target, "arrival_mean_hour": 10.0,
            "arrival_std_hour": 0.0,
            "depart_mean_hour": 10.0 + window * (24.0 / m),
            "depart_std_hour": 0.0},
        instants_per_day=m, household_load_w=0.0)
    return generate_scenario(cfg, 1, seed, irradiance=np.zeros(m))


def sequential_greedy(sc):
    """The greedy oracle tested one candidate instant per 1-D power flow:
    EVs by flexibility, each taking its cheapest instants in turn while the
    network stays within limits. Returns the plans and the rejections."""
    net, m = sc.topology, sc.m
    _, _, base = site_tables(sc)
    needs = oracle_needs(sc)
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
            if within_limits(net, inj):
                plan[l] = True
                charging_at[i].append(p)
            else:
                rejected += 1
        plans[p.ev_id] = plan
    return plans, rejected


def plan_cost(sc, plans):
    """What `plans` pay at full power, summed over EVs and instants."""
    dh = sc.delta_i / 60.0
    return sum(sc.price_profile[(p.t_arrive + l) % sc.m] * p.p_max * dh
               for p in sc.fleet for l in np.flatnonzero(plans[p.ev_id]))


def small_feeder(n_ev, rating, sub_districts=2, seed=1):
    cfg = defaults(
        "scenario", fleet_size=n_ev, instants_per_day=24,
        topology={"sub_districts": sub_districts, "buses_per_feeder": 3,
                  "households_per_bus": 3, "line_rating": rating})
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
        plans = centralized_oracle(sc)
        assert plans.keys() == expected.keys()
        for ev, plan in expected.items():
            assert plans[ev].tolist() == plan.tolist()

    def test_solves_each_distinct_row_once(self, monkeypatch):
        # Once per distinct row that the certificate does not clear.
        sc = small_feeder(12, 60.0)
        checked, cleared, solved = [], set(), []
        within_limits = GridJudge.within_limits
        solve = strategies.solve_power_flow

        def record_check(self, inj):
            checked.append(inj.tobytes())
            if certainly_within_limits(sc.topology, inj):
                cleared.add(inj.tobytes())
            return within_limits(self, inj)

        def record_solve(net, inj, **kw):
            solved.append(inj.tobytes())
            return solve(net, inj, **kw)

        monkeypatch.setattr(GridJudge, "within_limits", record_check)
        monkeypatch.setattr(strategies, "solve_power_flow", record_solve)
        centralized_oracle(sc)
        distinct = list(dict.fromkeys(checked))
        assert len(checked) > len(distinct)   # rows repeat
        assert cleared                        # and some are never solved
        assert solved == [key for key in distinct if key not in cleared]

    @pytest.mark.parametrize("make", [
        lambda: small_feeder(12, 60.0),
        lambda: small_feeder(9, 40.0, sub_districts=3, seed=4),
    ])
    def test_plans_as_with_the_memo_first(self, make, monkeypatch):
        # The judge asks its memo first; a judge that keeps nothing, and
        # asks the certificate and then the solve for every row, plans the
        # same.
        sc = make()
        plans = centralized_oracle(sc)

        class NoMemo(GridJudge):
            def state(self, inj):
                self.states.clear()
                return super().state(inj)

        monkeypatch.setattr(strategies, "GridJudge", NoMemo)
        reference = centralized_oracle(sc)
        assert plans.keys() == reference.keys()
        for ev, plan in reference.items():
            assert plans[ev].tolist() == plan.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, bad):
        sc = tiny_scenario()
        inj = np.zeros(sc.topology.n_buses)
        inj[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            GridJudge(sc.topology, solve_power_flow).within_limits(inj)

    def test_tables_equal_a_site_loop(self, monkeypatch):
        # Unequal loads and panels, and sites with no EV, so that the order
        # of the sums and the unconnected-PV term both show.
        sc = small_feeder(12, 60.0)
        rng = np.random.default_rng(5)
        sc.site_load_profiles = rng.uniform(0.0, 900.0,
                                            sc.site_load_profiles.shape)
        sc.site_pv_area = rng.uniform(5.0, 40.0, len(sc.site_pv_area))
        loads, pv, base = site_tables(sc)
        load_inj, site_pv_w = instant_tables(sc)
        assert sc.site_bus.tolist() == [b for b, bus in
                                        enumerate(sc.topology.buses)
                                        for _ in bus.devices]
        assert load_inj.tobytes() == loads.tobytes()
        assert site_pv_w.tobytes() == pv.tobytes()

        # The oracle's base is its one table over (instant, bus) cells.
        built = []

        def record(*args):
            built.append(engine.site_injections(*args))
            return built[-1]

        monkeypatch.setattr(strategies, "site_injections", record)
        centralized_oracle(sc)
        assert len(built) == 1
        assert built[0].tobytes() == base.tobytes()
        assert not np.array_equal(base, loads)   # some sites are unconnected

    def test_zero_evs(self):
        sc = tiny_scenario(n_ev=0)
        assert centralized_oracle(sc) == {}

    def test_unconstrained_picks_cheapest(self):
        sc = tiny_scenario(n_ev=1)
        p = sc.fleet[0]
        prices = [sc.price_profile[(p.t_arrive + l) % sc.m]
                  for l in range(p.window_length)]
        cheapest = sorted(range(p.window_length), key=lambda l: (prices[l], l))
        for plans in (centralized_oracle(sc), optimal_plans(sc)):
            plan = plans[p.ev_id]
            k = int(plan.sum())
            assert sorted(np.flatnonzero(plan)) == sorted(cheapest[:k])

    def test_greedy_matches_exhaustive_unconstrained(self):
        sc = tiny_scenario(n_ev=3)
        greedy, best = centralized_oracle(sc), optimal_plans(sc)
        assert plan_cost(sc, greedy) == pytest.approx(plan_cost(sc, best))

    def test_constrained_staggering(self):
        # Rating admits one charger at a time: the optimum puts the two EVs
        # on disjoint instants, and the greedy plans replay with no
        # violation at no less than the optimum's cost.
        sc = tiny_scenario(n_ev=2, rating=40.0, soc_target=0.53)
        best = optimal_plans(sc)
        a, b = sc.fleet
        ia = {(a.t_arrive + l) % sc.m for l in np.flatnonzero(best[a.ev_id])}
        ib = {(b.t_arrive + l) % sc.m for l in np.flatnonzero(best[b.ev_id])}
        assert not (ia & ib)
        plans = centralized_oracle(sc)
        res = simulation(sc, ScheduleStrategy(plans)).run()
        assert res.violations_current.sum() == 0
        assert res.violations_voltage.sum() == 0
        assert plan_cost(sc, plans) >= plan_cost(sc, best) - 1e-12

    def test_schedule_strategy_replays_plan(self):
        sc = tiny_scenario(n_ev=2)
        plans = centralized_oracle(sc)
        res = simulation(sc, ScheduleStrategy(plans)).run()
        dh = sc.delta_i / 60.0
        for j, p in enumerate(sc.fleet):
            expected = sum(sc.price_profile[(p.t_arrive + l) % sc.m]
                           * p.p_max * dh
                           for l in np.flatnonzero(plans[p.ev_id]))
            assert res.cost[0, j] == pytest.approx(expected, abs=1e-9)
