"""Network topology and power-flow tests against closed-form oracles."""
import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge import gridnet
from gridcharge.engine import GridJudge
from gridcharge.gridnet import (MAX_BOUND_TERMS, Bus, Line, NetworkTopology,
                                TopologyError, _certificate_bounds,
                                _segment_certificate, _tier_total,
                                below_total_limit, bound_below_limit,
                                build_replicated_feeder,
                                certainly_within_limits, pv_power,
                                solve_power_flow, total_bounds)
from helpers import certificate_bounds, defaults, power_mismatch


def feeder(**topology):
    """The replicated feeder of the default `scenario.topology` under the
    `topology` overrides."""
    return build_replicated_feeder(defaults("scenario", "topology",
                                            **topology))


@st.composite
def radial_trees(draw, max_buses=16, min_buses=2):
    """A random radial tree of min_buses..max_buses buses: bus ids and the
    slack position shuffled, lines listed in random order, about half of
    them child->parent. Returns (buses, lines, slack bus id)."""
    n = draw(st.integers(min_buses, max_buses))
    parent = [draw(st.integers(0, k - 1)) for k in range(1, n)]
    order = draw(st.permutations(range(n)))
    flip = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    line_order = draw(st.permutations(range(n - 1)))
    name = [f"b{order[k]}" for k in range(n)]   # tree node k -> bus id
    lines = []
    for k in line_order:
        child, up = name[k + 1], name[parent[k]]
        ends = (child, up) if flip[k] else (up, child)
        lines.append(Line(f"l{k}", *ends, 0.01, 0.005, 1000.0))
    return [Bus(f"b{i}") for i in range(n)], lines, name[0]


@st.composite
def limited_trees(draw, max_rating=500.0):
    """A `radial_trees` network with random line impedances, ratings up to
    `max_rating` ampere and random bus voltage bands. Half the time the
    slack bus's band is drawn
    from anywhere near 1 per unit, the slack voltage, so that it may
    exclude it or end exactly at it, where rounding decides. Returns a
    NetworkTopology."""
    buses, lines, slack = draw(radial_trees())
    lines = [replace(l, resistance=draw(st.floats(1e-4, 0.05)),
                     reactance=draw(st.floats(0.0, 0.05)),
                     i_rated=draw(st.floats(5.0, max_rating)))
             for l in lines]
    edge = st.one_of(st.floats(0.8, 1.2), st.just(1.0))
    slack_min, slack_max = draw(st.one_of(
        st.tuples(st.floats(0.8, 0.99), st.floats(1.01, 1.2)),
        st.tuples(edge, edge).map(sorted).filter(lambda b: b[0] < b[1])))
    buses = [replace(b, v_min=slack_min, v_max=slack_max) if b.id == slack
             else replace(b, v_min=draw(st.floats(0.8, 0.99)),
                          v_max=draw(st.floats(1.01, 1.2)))
             for b in buses]
    return NetworkTopology(buses, lines, slack)


def leaf_count(net):
    """The number of buses no line hangs below."""
    return net.n_buses - len(set(net.parent_bus[net._non_slack].tolist()))


# Solution of the 46-bus case in `TestSegmentSums.test_pinned_trajectory`
# as the depth-ordered sweep computed it, to 12 significant digits.
PINNED_46_VOLTAGES = [
    1.0, 0.997908225908, 0.995558386205, 0.993271938646,
    0.991201772025, 0.989484992612, 0.987748968995, 0.98623316837,
    0.985002257358, 0.983939858504, 0.983150795082, 0.982693537717,
    0.982399450672, 0.996903985635, 0.995867180354, 0.995092503379,
    0.994598643388, 0.994076886137, 0.993544099979, 0.993125000688,
    0.992791593244, 0.992511309979, 0.992543153443, 0.992520957909,
    0.995559362304, 0.993433522596, 0.991461164004, 0.989652258152,
    0.988085920684, 0.986487255052, 0.985155072117, 0.984054029127,
    0.983293229229, 0.982749874367, 0.982587551713, 0.996612464461,
    0.995574496694, 0.994498663564, 0.993479491443, 0.992479210044,
    0.991660837437, 0.990981922273, 0.990330480201, 0.989825418839,
    0.989321082792, 0.988957788118,
]
PINNED_46_CURRENTS = [
    1601.04251676, 539.084476672, 524.807719235, 475.333625524,
    394.261372612, 398.85849562, 348.360427202, 282.946241156,
    244.265256516, 181.449135207, 105.158023569, 67.637490262,
    230.782874926, 238.332490644, 178.091113332, 113.5275015,
    119.958720879, 122.51140232, 96.3766934009, 76.6758600952,
    64.4627889199, 7.32405469646, 5.10495860962, 538.903183663,
    487.891326741, 452.829485077, 415.439836191, 359.813369084,
    367.393094221, 306.227432698, 253.15201902, 174.948289172,
    124.961446702, 37.3334396561, 297.60560495, 238.391680659,
    247.164403272, 234.195236809, 229.90891928, 188.118006227,
    156.075415768, 149.782185993, 116.134293525, 115.982239516,
    83.5539399497,
]


def two_bus_net(r=0.1, x=0.0, v_base=230.0, rating=100.0, v_min=0.95,
                v_max=1.05, slack_band=None):
    return NetworkTopology(
        buses=[Bus("slack", *(slack_band or (v_min, v_max))),
               Bus("load", v_min, v_max)],
        lines=[Line("l0", "slack", "load", r, x, rating)],
        slack_bus_id="slack",
        v_base=v_base,
    )


def by_bus(net, watts):
    """The injection array of `watts`, bus id -> watt; 0 at other buses."""
    p = np.zeros(net.n_buses)
    for bus_id, watt in watts.items():
        p[net.bus_index[bus_id]] = watt
    return p


def two_bus_closed_form(v1, r, p_load):
    """Exact receiving-end voltage of a resistive two-bus feeder.

    From P = V2 * (V1 - V2) / R: V2 = (V1 + sqrt(V1^2 - 4 R P)) / 2.
    """
    disc = v1 * v1 - 4.0 * r * p_load
    if disc < 0.0:
        return None
    return (v1 + math.sqrt(disc)) / 2.0


class TestTwoBusOracle:
    def test_matches_closed_form(self):
        net = two_bus_net()
        sol = solve_power_flow(net, by_bus(net, {"load": 2300.0}))
        assert sol.converged
        v2 = two_bus_closed_form(230.0, 0.1, 2300.0)
        assert v2 == pytest.approx(228.99563, abs=1e-4)
        assert sol.bus_voltages[1] == pytest.approx(v2 / 230.0, abs=1e-6)
        assert sol.line_currents[0] == pytest.approx(2300.0 / v2, abs=1e-6)
        assert sol.line_currents[0] == pytest.approx(10.0439, abs=1e-3)

    def test_matches_closed_form_at_random_loads(self):
        net = two_bus_net()
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = float(rng.uniform(0.0, 100_000.0))
            sol = solve_power_flow(net, by_bus(net, {"load": p}))
            v2 = two_bus_closed_form(230.0, 0.1, p)
            assert sol.converged
            assert sol.bus_voltages[1] == pytest.approx(v2 / 230.0, abs=1e-6)

    def test_infeasible_load_does_not_converge(self):
        # Deliverable limit of the resistive two-bus feeder: V1^2 / (4 R).
        limit = 230.0**2 / (4 * 0.1)
        net = two_bus_net()
        sol = solve_power_flow(net, by_bus(net, {"load": 1.2 * limit}))
        assert not sol.converged

    def test_zero_injections_flat_voltage(self):
        net = feeder(sub_districts=3, buses_per_feeder=4)
        sol = solve_power_flow(net, np.zeros(net.n_buses))
        assert sol.converged
        assert np.allclose(sol.bus_voltages, 1.0)
        assert np.allclose(sol.line_currents, 0.0)

    def test_generation_raises_voltage(self):
        net = two_bus_net()
        sol = solve_power_flow(net, by_bus(net, {"load": -2300.0}))
        assert sol.converged
        assert sol.bus_voltages[1] > 1.0

    def test_residual_small_on_multibus_net(self):
        net = feeder(sub_districts=2, buses_per_feeder=5)
        rng = np.random.default_rng(3)
        inj = rng.uniform(-2000.0, 5000.0, net.n_buses)
        inj[net.bus_index["slack"]] = 0.0
        sol = solve_power_flow(net, inj)
        assert sol.converged
        assert power_mismatch(net, sol, inj) < 1e-6

    def test_monotone_loading_at_leaf(self):
        net = feeder(buses_per_feeder=6)
        leaf = "d0b5"
        prev = None
        for p in [0.0, 1e3, 5e3, 2e4, 5e4]:
            sol = solve_power_flow(net, by_bus(net, {leaf: p}))
            v = sol.bus_voltages[net.bus_index[leaf]]
            if prev is not None:
                assert v <= prev + 1e-12
            prev = v


class TestSegmentSums:
    """The sweep's subtree/path index lists on unusual but legal trees."""

    def test_branching_tree_in_arbitrary_order(self):
        # Slack at index 2; branches s-b-{a-d, h} and s-c-e-f-g of depth
        # 3 and 4; lines listed leaf-first, four of them child->parent.
        buses = [Bus(i) for i in ("a", "b", "s", "c", "d", "e", "f", "g",
                                  "h")]
        lines = [Line("fg", "g", "f", 0.02, 0.01, 100.0),
                 Line("ad", "a", "d", 0.03, 0.0, 100.0),
                 Line("ef", "f", "e", 0.01, 0.01, 100.0),
                 Line("bh", "b", "h", 0.02, 0.0, 100.0),
                 Line("ba", "a", "b", 0.01, 0.005, 100.0),
                 Line("ce", "c", "e", 0.01, 0.0, 100.0),
                 Line("sb", "s", "b", 0.005, 0.002, 100.0),
                 Line("cs", "c", "s", 0.005, 0.002, 100.0)]
        net = NetworkTopology(buses, lines, "s")
        inj = by_bus(net, {"a": 2000.0, "b": 1500.0, "c": -800.0,
                           "d": 3000.0, "e": 1000.0, "f": 2500.0,
                           "g": 4000.0, "h": -1200.0})
        sol = solve_power_flow(net, inj)
        assert sol.converged
        assert power_mismatch(net, sol, inj) < 1e-6
        # The deepest leaf of each branch sees the lowest voltage on it.
        v = dict(zip((b.id for b in buses), sol.bus_voltages))
        assert v["s"] == 1.0
        assert v["g"] < v["f"] < v["e"] < v["c"] < 1.0
        assert v["d"] < v["a"] < v["b"] < 1.0

    @given(tree=radial_trees(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_radial_trees(self, tree, data):
        buses, lines, slack = tree
        loads = data.draw(st.lists(
            st.floats(-2000.0, 3000.0, allow_nan=False),
            min_size=len(buses), max_size=len(buses)))
        net = NetworkTopology(buses, lines, slack)
        inj = by_bus(net, {b.id: w for b, w in zip(buses, loads)
                           if b.id != slack})
        sol = solve_power_flow(net, inj)
        assert sol.converged
        assert power_mismatch(net, sol, inj) < 1e-6

    def test_lone_slack_bus(self):
        net = NetworkTopology([Bus("s")], [], "s")
        sol = solve_power_flow(net, [0.0])
        assert sol.converged
        assert sol.bus_voltages.tolist() == [1.0]
        assert sol.line_currents.shape == (0,)

    def test_pinned_trajectory(self):
        # Guards the sweep count that the benchmark repeats exactly.
        net = feeder(sub_districts=4)
        assert net.n_buses == 46
        inj = np.random.default_rng(46).uniform(-3000.0, 20000.0,
                                                net.n_buses)
        inj[net.bus_index["slack"]] = 0.0
        sol = solve_power_flow(net, inj)
        assert sol.converged
        assert sol.iterations == 5
        np.testing.assert_allclose(sol.bus_voltages, PINNED_46_VOLTAGES,
                                   rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(sol.line_currents, PINNED_46_CURRENTS,
                                   rtol=1e-9, atol=0.0)

    def test_no_array_outgrows_the_index_lists(self):
        # The topology's memory grows with the sum of bus depths, the
        # length of `_below` (7,701 entries here), not with n_buses^2
        # (1.2M): no dense bus-by-bus or line-by-bus map is kept.
        net = feeder(sub_districts=100)
        assert net.n_buses == 1102
        sizes = {name: value.size for name, value in vars(net).items()
                 if isinstance(value, np.ndarray)}
        assert sizes and max(sizes.values()) <= len(net._below), sizes


def assert_bounds_match_a_walk(net, p):
    """The bounds `certainly_within_limits` tests against a walk up
    `parent_bus` from every bus: first each line's load S_l, then each
    non-slack bus's drop d_b."""
    np.testing.assert_allclose(np.concatenate(_certificate_bounds(net, p)),
                               certificate_bounds(net, p), rtol=1e-12,
                               atol=0.0)


class TestCertificate:
    """`certainly_within_limits` against the solve as an independent
    oracle: True must mean a converged solve inside every limit."""

    @given(net=limited_trees(), data=st.data())
    def test_certified_vectors_solve_within_limits(self, net, data):
        scale = data.draw(st.sampled_from([10.0, 100.0, 1e3, 1e4]))
        p = np.array(data.draw(st.lists(
            st.floats(-scale, scale), min_size=net.n_buses,
            max_size=net.n_buses)))
        if not certainly_within_limits(net, p):
            return
        sol = solve_power_flow(net, p)
        assert sol.converged
        assert (sol.line_currents <= net.i_rated).all()
        assert (net.v_min <= sol.bus_voltages).all()
        assert (sol.bus_voltages <= net.v_max).all()

    @given(net=limited_trees(), data=st.data())
    def test_bounds_match_a_walk_to_the_slack(self, net, data):
        magnitude = st.one_of(st.just(0.0), st.floats(1e-6, 1e4))
        signed = st.tuples(magnitude, st.sampled_from([-1.0, 1.0]))
        p = np.array([a * s for a, s in data.draw(st.lists(
            signed, min_size=net.n_buses, max_size=net.n_buses))])
        assert_bounds_match_a_walk(net, p)

    def test_bounds_match_a_walk_on_a_wide_feeder(self):
        # `radial_trees` stops at 16 buses; this feeder has 1,102, and its
        # trunk line sums the terms of 1,100 buses.
        net = feeder(sub_districts=100)
        rng = np.random.default_rng(1102)
        p = rng.uniform(-2e4, 2e4, net.n_buses)
        p[rng.random(net.n_buses) < 0.2] = 0.0
        assert_bounds_match_a_walk(net, p)

    def test_clears_light_loads_on_the_feeders(self):
        for net in (feeder(), feeder(sub_districts=4)):
            assert certainly_within_limits(net, np.zeros(net.n_buses))
            assert certainly_within_limits(net, np.full(net.n_buses, 1500.0))
            assert certainly_within_limits(net, np.full(net.n_buses, -900.0))

    def test_past_the_deliverable_limit(self):
        # Resistive two-bus feeder: no solution beyond V1^2 / (4 R).
        net = two_bus_net(rating=1e6)
        p = [0.0, 1.2 * 230.0**2 / (4 * 0.1)]
        assert not certainly_within_limits(net, p)
        assert not solve_power_flow(net, p).converged

    def test_contraction_alone_refuses(self):
        # v_lo = 23 V: at 3 kW, q = 0.1 * 3000 / 23^2 = 0.57 > 1/2, while
        # the ball, the convergence bound and every limit hold. The solve
        # itself is well inside the limits.
        net = two_bus_net(rating=1e4, v_min=0.1, v_max=2.0)
        assert certainly_within_limits(net, [0.0, 2000.0])   # q = 0.38
        assert not certainly_within_limits(net, [0.0, 3000.0])
        sol = solve_power_flow(net, [0.0, 3000.0])
        assert sol.converged and sol.bus_voltages[1] > 0.99

    def test_slack_band_excluding_one(self):
        assert certainly_within_limits(two_bus_net(), [0.0, 0.0])
        for band in ((1.01, 1.1), (0.9, 0.99)):
            net = two_bus_net(slack_band=band)
            assert not certainly_within_limits(net, [0.0, 0.0])
            # The solve holds the slack bus at 1.0, outside its band.
            sol = solve_power_flow(net, [0.0, 0.0])
            assert not band[0] <= sol.bus_voltages[0] <= band[1]

    def test_margin_at_the_limits(self):
        # v_lo = 0.5 * 256 = 128 V, so 1280 W puts the line bound S / v_lo
        # exactly at the 10 A rating; a slack band ending at 1.0 puts the
        # slack voltage exactly at its edge. Both are within the limits,
        # but not by the margin.
        net = two_bus_net(v_base=256.0, rating=10.0, v_min=0.5)
        assert certainly_within_limits(net, [0.0, 1279.0])
        assert not certainly_within_limits(net, [0.0, 1280.0])
        for band in ((0.5, 1.0), (1.0, 1.05)):
            net = two_bus_net(v_base=256.0, rating=10.0, v_min=0.5,
                              slack_band=band)
            assert not certainly_within_limits(net, [0.0, 0.0])

    def test_lone_slack_bus(self):
        assert certainly_within_limits(
            NetworkTopology([Bus("s")], [], "s"), [5.0])
        assert not certainly_within_limits(
            NetworkTopology([Bus("s", 1.01, 1.1)], [], "s"), [5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_injections_raise(self, bad):
        net = two_bus_net()
        for at in (0, 1):   # the slack bus's injection is checked too
            p = np.zeros(2)
            p[at] = bad
            with pytest.raises(ValueError, match="finite"):
                certainly_within_limits(net, p)

    def test_wrong_shape_rejected_as_by_the_solve(self):
        net = two_bus_net()
        for p in (np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(ValueError, match=r"\(n_buses,\)"):
                certainly_within_limits(net, p)

    @pytest.mark.parametrize("r", [0.1, 5e-324])
    def test_overflowing_sums_fail_without_a_warning(self, r):
        # Finite injections whose sums of |p| pass the float range: on two
        # buses the total, on a chain also the load of the head line,
        # which only the certificate's bounds sum; a line of 5e-324 ohm
        # has a zero drop per watt, which makes that load's drop NaN. The
        # verdict is False, and nothing warns (pytest makes a
        # RuntimeWarning an error).
        assert not certainly_within_limits(two_bus_net(r=r),
                                           np.array([1e308, 1e308]))
        chain = NetworkTopology(
            [Bus("s"), Bus("a"), Bus("b")],
            [Line("l0", "s", "a", r, 0.0, 100.0),
             Line("l1", "a", "b", 0.1, 0.0, 100.0)], "s")
        p = np.array([0.0, 1e308, 1e308])
        with mock.patch.object(gridnet, "_certificate_bounds",
                               wraps=_certificate_bounds) as bounds:
            assert not certainly_within_limits(chain, p)
        bounds.assert_called_once()
        load, _ = _certificate_bounds(chain, p)
        assert load[0] == math.inf


class TestTotalLoadTier:
    """The tier in front of the segment-sum certificate: a vector whose
    total |p| lies below `NetworkTopology._total_limit` is cleared at once,
    any other goes on to the certificate."""

    # Each case makes one of the tier's bounds the least, on the two-bus
    # feeder of 0.1 ohm, where D = 0.1 ohm / v_lo and m = 1e-9.
    @pytest.mark.parametrize("kw, limit", [
        # The rating: v_lo * i_rated * (1 - 2m), 218.5 V * 100 A.
        ({}, 218.5 * 100.0 * (1.0 - 2e-9)),
        # The band: (v_max * v_base - v_s * (1 + 2m)) / D.
        (dict(rating=1000.0, v_max=1.02),
         (1.02 * 230.0 - 230.0 * (1.0 + 2e-9)) * 218.5 / 0.1),
        # The drop: (v_s - v_lo - 2m * v_s) / D.
        (dict(rating=1000.0, v_min=0.99),
         (230.0 - 0.99 * 230.0 - 2e-9 * 230.0) * 227.7 / 0.1),
        # q <= 1/2: (1 - 2m) * v_lo / (2 D).
        (dict(rating=1e4, v_min=0.5, v_max=2.0),
         (1.0 - 2e-9) * 115.0 / 2.0 * 115.0 / 0.1),
    ])
    def test_limit_is_the_least_bound(self, kw, limit):
        assert two_bus_net(**kw)._total_limit == pytest.approx(
            limit, rel=1e-12, abs=0.0)

    def test_impedance_rounding_to_no_drop_bounds_nothing(self):
        # 5e-324 ohm / 218.5 V rounds to a drop per watt of 0.
        net = two_bus_net(r=5e-324)
        assert net._drop_per_watt[0] == 0.0
        assert net._total_limit == two_bus_net()._total_limit

    def test_below_the_limit_cleared_without_the_certificate(self):
        for net in (two_bus_net(), feeder(sub_districts=100)):
            limit = net._total_limit
            last = np.zeros(net.n_buses)
            last[-1] = np.nextafter(limit, 0.0)
            mixed = np.full(net.n_buses, -0.4 * limit / net.n_buses)
            mixed[-1] = 0.5 * limit
            for p in (last, mixed):
                with mock.patch.object(gridnet, "_segment_certificate",
                                       side_effect=AssertionError):
                    assert certainly_within_limits(net, p)
                assert _segment_certificate(net, p)

    def test_at_the_limit_the_certificate_decides(self):
        net = two_bus_net()
        limit = net._total_limit
        # The certificate's own line limit lies 1e-9 of the rating above.
        assert certainly_within_limits(net, np.array([0.0, limit]))
        # Split between the buses, the total is what counts.
        for p in ([0.0, limit], [0.5 * limit, 0.5 * limit]):
            for verdict in (False, True):
                with mock.patch.object(gridnet, "_segment_certificate",
                                       return_value=verdict) as certificate:
                    assert certainly_within_limits(net, np.array(p)) is verdict
                certificate.assert_called_once()

    def test_a_limit_too_small_to_scale_exactly_clears_nothing(self):
        # 218.5 V * 1e-305 A, times 2^-32, is below the least normal
        # float, where scaling rounds.
        net = two_bus_net(rating=1e-305)
        assert 0.0 < net._total_limit < 1e-300
        assert not below_total_limit(net, np.zeros(2))
        assert certainly_within_limits(net, np.zeros(2))

    def test_only_float_vectors_of_finite_injections_pass(self):
        net = two_bus_net()
        light = np.array([0.0, 0.5 * net._total_limit])
        assert below_total_limit(net, light)
        for p in (light.tolist(), light.astype(np.float32), light[:1],
                  light[None], np.array([np.nan, 0.0]),
                  np.array([0.0, np.inf])):
            assert not below_total_limit(net, p)

    def test_zero_when_the_slack_band_excludes_one(self):
        # A band ending at 1.0 excludes it by the certificate's margin.
        for band in ((1.01, 1.1), (0.9, 0.99), (0.95, 1.0), (1.0, 1.05)):
            net = two_bus_net(slack_band=band)
            assert net._total_limit == 0.0
            assert not certainly_within_limits(net, np.zeros(2))

    @given(net=limited_trees(max_rating=1e5).filter(
        lambda net: leaf_count(net) >= 3), data=st.data())
    def test_tier_clears_only_what_the_certificate_clears(self, net, data):
        limit = net._total_limit
        if not 0.0 < limit < math.inf:
            return
        # All of the load at one bus: at the right bus the limit is tight.
        at_one_bus = np.diag(np.full(net.n_buses, np.nextafter(limit, 0.0)))
        shape = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=net.n_buses,
            max_size=net.n_buses)))
        total = np.abs(shape).sum()
        # Spread loads, with totals above the limit too.
        spread = [shape * (data.draw(st.floats(0.5, 2.0)) * limit / total)
                  ] if total > 0.0 else []
        for p in [*at_one_bus, *spread]:
            with mock.patch.object(gridnet, "_segment_certificate",
                                   return_value=False):
                if not certainly_within_limits(net, p):
                    continue
            assert _segment_certificate(net, p)
            sol = solve_power_flow(net, p)
            assert sol.converged
            assert (sol.line_currents <= net.i_rated).all()
            assert (net.v_min <= sol.bus_voltages).all()
            assert (sol.bus_voltages <= net.v_max).all()


def split_vector(load, site_bus, pv, ev_site, grid_w, absorbed_w):
    """A base vector q and a vector p on it, one Python float at a time.
    q: each bus's `load` entry, then minus the `pv` of its sites in site
    order. p: each bus's load entry, then the grid power `grid_w` of the
    EVs at its sites in EV order, then minus the PV of its sites in site
    order, where a site with an EV (`ev_site`, one site per EV) exports
    its PV less the EV's `absorbed_w`."""
    q, p = list(load), list(load)
    for site, watt in zip(ev_site, grid_w):
        p[site_bus[site]] += watt
    absorbed = dict(zip(ev_site, absorbed_w))
    for site, bus in enumerate(site_bus):
        q[bus] -= pv[site]
        p[bus] += absorbed[site] - pv[site] if site in absorbed else -pv[site]
    return np.array(q), np.array(p)


def split_bound(net, load, pv, q, grid_w, absorbed_w):
    """What `bound_below_limit` takes for `split_vector`'s p: q's bound
    from `total_bounds`, with the loads and the PV as its parts, and the
    EVs' grid power and absorbed PV each summed with its factor."""
    bounds, factor = total_bounds(
        net, q[None], (np.array(load)[None], np.array(pv)[None]),
        net.n_buses + len(grid_w) + len(pv))
    weights = np.full(len(grid_w), factor)
    return (bounds[0], np.dot(grid_w, weights),
            np.dot(absorbed_w, weights))


class TestBoundBelowLimit:
    """`bound_below_limit` clears a vector from the totals of its parts,
    before it is built: the bound is never below the tier's sum of the
    built vector, so whatever it clears, the tier clears, and so do the
    certificate and the judge, which keeps no memo entry."""

    @given(net=limited_trees(max_rating=1e5), data=st.data())
    @settings(deadline=None)
    def test_the_tier_clears_what_the_bound_clears(self, net, data):
        n = net.n_buses
        limit = net._total_limit
        n_sites = data.draw(st.integers(0, 2 * n))
        site_bus = data.draw(st.lists(st.integers(0, n - 1),
                                      min_size=n_sites, max_size=n_sites))
        ev_site = data.draw(st.lists(st.integers(0, n_sites - 1), unique=True,
                                     max_size=n_sites)) if n_sites else []
        # Each kind of term totals up to 1.5 times the limit, so that the
        # bound clears some vectors and not others, and any one kind may
        # decide.
        unit = limit if 0.0 < limit < math.inf else 1e4
        # No term below 2^-990 W, whose scaled rounding is absolute.
        share = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-9, 1.0))

        def terms(count, signed=False):
            top = unit * data.draw(st.one_of(
                st.just(0.0), st.floats(1e-3, 1.5))) / max(1, count)
            out = data.draw(st.lists(share, min_size=count, max_size=count))
            signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                       min_size=count, max_size=count))
            return [top * a * (b if signed else 1.0)
                    for a, b in zip(out, signs)]

        # Loads of one sign and no PV cancel nothing: the bound is then the
        # tier's sum, but for rounding.
        load = terms(n, signed=data.draw(st.booleans()))
        pv = terms(n_sites)
        grid_w, absorbed_w = terms(len(ev_site)), terms(len(ev_site))
        q, p = split_vector(load, site_bus, pv, ev_site, grid_w, absorbed_w)
        base, added, absorbed = split_bound(net, load, pv, q, grid_w,
                                            absorbed_w)
        # At a limit of the tier's own sum of p, the tier clears nothing,
        # and neither may the bound.
        with mock.patch.object(net, "_bound_limit", _tier_total(net, p)):
            assert not bound_below_limit(net, base, added, absorbed)
        if bound_below_limit(net, base, added, absorbed):
            assert below_total_limit(net, p)
            assert certainly_within_limits(net, p)
            judge = GridJudge(net, solve_power_flow)
            assert judge.state(p) is judge.all_clear
            assert judge.states == {}

    def test_absorbed_pv_counts(self):
        # The site's PV cancels the bus's load in q, and its EV absorbs
        # more than the limit: only the absorbed total keeps the bound
        # from clearing p.
        net = two_bus_net()
        limit = net._total_limit
        load, pv, absorbed_w = [0.0, 0.6 * limit], [0.6 * limit], [1.2 * limit]
        q, p = split_vector(load, [1], pv, [0], [0.0], absorbed_w)
        assert q.tolist() == [0.0, 0.0]
        base, added, absorbed = split_bound(net, load, pv, q, [0.0],
                                            absorbed_w)
        assert bound_below_limit(net, base, added, 0.0)
        assert not bound_below_limit(net, base, added, absorbed)
        assert not below_total_limit(net, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", ["load", "pv", "grid", "absorbed"])
    def test_non_finite_terms_clear_nothing(self, at, bad):
        net = two_bus_net()
        terms = dict(load=[0.0, 1.0], pv=[1.0], grid=[1.0], absorbed=[1.0])
        terms[at][-1] = bad
        q, _ = split_vector(terms["load"], [1], terms["pv"], [0],
                            terms["grid"], terms["absorbed"])
        assert not bound_below_limit(net, *split_bound(
            net, terms["load"], terms["pv"], q, terms["grid"],
            terms["absorbed"]))

    def test_terms_near_the_float_limit_clear_nothing(self):
        # Sums of these terms pass the float range unless scaled; nothing
        # warns (pytest makes a RuntimeWarning an error). On a lone slack
        # bus, whose limit is infinite, the built vector is infinite.
        big = sys.float_info.max
        lone = NetworkTopology([Bus("s")], [], "s")
        for net, load in ((two_bus_net(), [big, big]), (lone, [big])):
            q, p = split_vector(load, [0], [big], [0], [big], [big])
            base, added, absorbed = split_bound(net, load, [big], q, [big],
                                                [big])
            assert math.isfinite(base + added + absorbed)
            assert not bound_below_limit(net, base, added, absorbed)
            assert not below_total_limit(net, p)

    def test_past_the_most_terms_every_bound_is_infinite(self):
        net = two_bus_net()
        bounds, _ = total_bounds(net, np.zeros((3, 2)), (np.zeros((3, 2)),),
                                 MAX_BOUND_TERMS + 1)
        assert bounds == [math.inf] * 3
        assert not bound_below_limit(net, bounds[0], 0.0, 0.0)
        bounds, _ = total_bounds(net, np.zeros((3, 2)), (np.zeros((3, 2)),),
                                 MAX_BOUND_TERMS)
        assert bound_below_limit(net, bounds[0], 0.0, 0.0)


class TestFeederGenerator:
    def test_smallest_legal_tree(self):
        net = feeder(buses_per_feeder=1, households_per_bus=1)
        assert net.n_buses == 2
        assert net.n_lines == 1

    def test_two_by_three_counts(self):
        net = feeder(sub_districts=2, buses_per_feeder=3)
        # slack + trunk junction + 2 x 3 chain buses
        assert net.n_buses == 8
        assert net.n_lines == 7

    def test_zero_sub_districts_rejected(self):
        with pytest.raises(TopologyError):
            feeder(sub_districts=0)

    @given(s=st.integers(1, 5), b=st.integers(1, 8), h=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_tree_property(self, s, b, h):
        net = feeder(sub_districts=s, buses_per_feeder=b,
                     households_per_bus=h)
        assert net.n_lines == net.n_buses - 1
        # Connectivity is certified by construction succeeding (BFS covers
        # every bus or NetworkTopology raises).
        assert (net.bus_depth >= 0).all()
        device_count = sum(len(bus.devices) for bus in net.buses)
        assert device_count == s * b * h

    def test_households_attached(self):
        net = feeder(buses_per_feeder=2, households_per_bus=3)
        bus = net.buses[net.bus_index["d0b1"]]
        assert bus.devices == ("d0b1h0", "d0b1h1", "d0b1h2")


class TestTopologyValidation:
    def test_cycle_rejected(self):
        buses = [Bus("a"), Bus("b"), Bus("c")]
        lines = [Line("1", "a", "b", 0.1, 0.0, 10),
                 Line("2", "b", "c", 0.1, 0.0, 10),
                 Line("3", "c", "a", 0.1, 0.0, 10)]
        with pytest.raises(TopologyError):
            NetworkTopology(buses, lines, "a")

    def test_disconnected_rejected(self):
        buses = [Bus("a"), Bus("b"), Bus("c"), Bus("d")]
        lines = [Line("1", "a", "b", 0.1, 0.0, 10),
                 Line("2", "c", "d", 0.1, 0.0, 10),
                 Line("3", "c", "d", 0.2, 0.0, 10)]
        with pytest.raises(TopologyError):
            NetworkTopology(buses, lines, "a")

    def test_duplicate_line_ids_rejected(self):
        buses = [Bus("a"), Bus("b"), Bus("c")]
        lines = [Line("1", "a", "b", 0.1, 0.0, 10),
                 Line("1", "b", "c", 0.1, 0.0, 10)]
        with pytest.raises(TopologyError, match="duplicate line ids"):
            NetworkTopology(buses, lines, "a")

    def test_unknown_slack_rejected(self):
        with pytest.raises(TopologyError):
            NetworkTopology([Bus("a")], [], "zz")

    def test_bad_voltage_band_rejected(self):
        with pytest.raises(TopologyError):
            Bus("x", v_min=1.05, v_max=0.95)

    def test_zero_impedance_rejected(self):
        with pytest.raises(TopologyError):
            Line("l", "a", "b", 0.0, 0.0, 10.0)

    def test_nonpositive_rating_rejected(self):
        with pytest.raises(TopologyError):
            Line("l", "a", "b", 0.1, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["resistance", "reactance", "i_rated"])
    def test_non_finite_line_value_rejected(self, field, bad):
        # A NaN rating used to build, and NaN never compares above it, so
        # the line could never congest.
        values = dict(resistance=0.01, reactance=0.005, i_rated=100.0)
        values[field] = bad
        with pytest.raises(TopologyError,
                           match=rf"line 'l7': {field} must be finite"):
            Line("l7", "a", "b", **values)

    def test_negative_resistance_rejected(self):
        with pytest.raises(TopologyError, match="resistance"):
            Line("l", "a", "b", -0.001, 0.0005, 10.0)

    def test_injection_validation(self):
        net = two_bus_net()
        with pytest.raises(ValueError):
            net.injection_array(np.zeros(3))
        with pytest.raises(ValueError):
            net.injection_array(np.array([0.0, np.inf]))

    def test_stack_validation(self):
        # One injection vector per solve: a (k, n_buses) stack is a shape
        # error.
        net = two_bus_net()
        with pytest.raises(ValueError, match=r"\(n_buses,\).*n_buses = 2"):
            net.injection_array(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"\(n_buses,\)"):
            solve_power_flow(net, np.zeros((1, 2)))


class TestPvPower:
    def test_direct_evaluation(self):
        assert pv_power(20.0, 0.18, 800.0) == pytest.approx(2880.0)

    def test_zero_irradiance(self):
        assert pv_power(15.0, 0.2, 0.0) == 0.0

    def test_zero_area(self):
        assert pv_power(0.0, 0.2, 1000.0) == 0.0

    @pytest.mark.parametrize("args", [(-1.0, 0.2, 100.0),
                                      (1.0, 1.5, 100.0),
                                      (1.0, 0.2, -5.0)])
    def test_invalid_inputs(self, args):
        with pytest.raises(ValueError):
            pv_power(*args)
