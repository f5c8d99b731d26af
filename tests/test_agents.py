"""Agent behavior: criticalities, request forwarding, reward, re-planning."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge import agents
from gridcharge.agents import (CriticalityRequest, EvProfile, Fleet, Roster,
                               bus_criticality, ev_decide, ev_record,
                               ev_reward, line_criticality,
                               request_priority, required_instants,
                               sample_cooperation_targets, take_requests)
from gridcharge.bandit import select_super_arm
from gridcharge.engine import agent_neighbors, flood_requests
from gridcharge.gridnet import (Bus, FeederSpec, Line, NetworkTopology,
                                build_replicated_feeder)


def req(crit, origin="x", kind="line", targets=()):
    return CriticalityRequest(criticality=crit, target_evs=frozenset(targets),
                              origin_agent=origin, origin_kind=kind)


def profile(**kw):
    base = dict(ev_id="ev0", bus_id="b0", e_bat=52.0, p_max=7.0,
                eta_chrg=0.95, soc_start=0.5, soc_target=0.8,
                t_arrive=0, t_depart=60)
    base.update(kw)
    return EvProfile(**base)


class TestCriticalities:
    @pytest.mark.parametrize("i, rated, expect",
                             [(105, 100, 1.0), (100, 100, 0.0), (50, 100, 0.0)])
    def test_line(self, i, rated, expect):
        assert line_criticality(i, rated) == expect

    @pytest.mark.parametrize("v, expect",
                             [(0.93, 1.0), (1.06, -1.0), (1.00, 0.0),
                              (0.95, 0.0), (1.05, 0.0)])
    def test_bus(self, v, expect):
        assert bus_criticality(v, 0.95, 1.05) == expect

    def test_request_range_enforced(self):
        with pytest.raises(ValueError):
            req(1.5)
        with pytest.raises(ValueError):
            CriticalityRequest(0.5, frozenset(), "a", "house")


def chain():
    """The agent graph of the feeder slack -l_d0b0- d0b0 -l_d0b1- d0b1
    -l_d0b2- d0b2 -l_d0b3- d0b3."""
    return agent_neighbors(build_replicated_feeder(FeederSpec(
        sub_districts=1, buses_per_feeder=4, households_per_bus=1)))


def received(requests, evs_at_bus, graph=None):
    """What each EV received when `requests` flood `graph` (default: the
    `chain` feeder) with the EVs `evs_at_bus` lists at each bus."""
    return flood_requests(graph or chain(), evs_at_bus, requests)[0]


class TestForwardRequest:
    """The rule every line and bus applies to the requests it receives in
    one flooding round, given the request it already holds, seen in what
    the EVs behind it receive."""

    def test_line_forwards_own_when_most_critical(self):
        # l_d0b3 keeps its own +1 against the -1 of bus d0b2 beside it and
        # against the +1 of l_d0b1, whose origin id is lower.
        own = req(1.0, origin="l_d0b3", targets={"ev1"})
        got = received([own, req(-1.0, origin="d0b2", kind="bus"),
                        req(1.0, origin="l_d0b1")], {"d0b3": ["ev3"]})
        assert got == {"ev3": [own]}

    def test_line_forwards_received_when_higher(self):
        # l_d0b2 holds a 0.5 and l_d0b3 nothing; both pass on the +1 of bus
        # d0b1 after what they held.
        incoming = req(1.0, origin="d0b1", kind="bus")
        weaker = req(0.5, origin="l_d0b2")
        got = received([incoming, weaker], {"d0b3": ["ev3"]})
        assert got == {"ev3": [weaker, incoming]}

    def test_bus_silent_when_all_zero(self):
        assert flood_requests(chain(), {"d0b0": ["ev0"]}, []) == ({}, 0)
        # A lone bus holding its own request has no one to send it to.
        lone = agent_neighbors(NetworkTopology([Bus("b0")], [], "b0"))
        assert flood_requests(lone, {}, [req(1.0, origin="b0",
                                             kind="bus")]) == ({}, 0)

    def test_overvoltage_own_request_forwarded(self):
        # d0b1 keeps its own -1 against the equal -1 of d0b3.
        over = req(-1.0, origin="d0b3", kind="bus", targets={"ev2"})
        own = req(-1.0, origin="d0b1", kind="bus")
        got = received([over, own], {"d0b0": ["ev0"], "d0b3": ["ev3"]})
        assert got == {"ev0": [own], "ev3": [over]}

    def test_plus_beats_minus_on_equal_magnitude(self):
        plus = req(1.0, origin="d0b2", kind="bus")
        minus = req(-1.0, origin="d0b0", kind="bus")
        got = received([minus, plus], {"d0b1": ["ev1"], "d0b0": ["ev0"]})
        # Both reach d0b1 in one round; d0b0 already holds its -1.
        assert got == {"ev1": [plus], "ev0": [minus, plus]}

    def test_tie_breaks_to_lowest_origin_id(self):
        hub = NetworkTopology(
            [Bus("hub"), Bus("a"), Bus("b"), Bus("c")],
            [Line("l10", "hub", "a", 0.01, 0.005, 100.0),
             Line("l1", "hub", "b", 0.01, 0.005, 100.0),
             Line("l2", "hub", "c", 0.01, 0.005, 100.0)], "hub")
        requests = [req(1.0, origin=line) for line in ("l10", "l1", "l2")]
        got = received(requests, {"hub": ["ev0"]}, agent_neighbors(hub))
        assert got == {"ev0": [requests[1]]}

    def test_bus_own_undervoltage_blocks_line_congestion(self):
        # A bus that holds its own +1 under-voltage request does not relay
        # a +1 line-congestion request: equal priority is not a strict gain.
        own = req(1.0, origin="d0b3", kind="bus", targets={"ev4"})
        congested = req(1.0, origin="l_d0b3", kind="line", targets={"ev5"})
        got = received([own, congested], {"d0b3": ["ev4"], "d0b2": ["ev5"]})
        assert got == {"ev4": [own], "ev5": [congested]}

    def test_forwarded_criticality_is_max_in_sight(self):
        # The top level reaches every bus; what an EV receives improves
        # strictly and ends at it.
        rng = np.random.default_rng(12)
        crits = [-1.0, -0.5, 0.5, 1.0]
        graph = chain()
        origins = list(graph.node)
        evs = {bus: [f"ev_{bus}"] for bus in graph.bus_id if bus}
        for _ in range(200):
            picked = rng.choice(len(origins), size=rng.integers(1, 5),
                                replace=False)
            requests = [req(float(rng.choice(crits)), origin=origins[k][1],
                            kind=origins[k][0]) for k in picked]
            top = max(request_priority(r.criticality) for r in requests)
            got = received(requests, evs, graph)
            assert set(got) == {ev for bus in evs.values() for ev in bus}
            for seq in got.values():
                levels = [request_priority(r.criticality) for r in seq]
                assert levels == sorted(set(levels)) and levels[-1] == top
                assert all(r in requests for r in seq)


class TestCooperationTargets:
    def test_count_at_least_pool(self):
        rng = np.random.default_rng(0)
        evs = {"a", "b", "c"}
        assert sample_cooperation_targets(evs, 10, rng) == frozenset(evs)

    def test_empty_pool(self):
        rng = np.random.default_rng(0)
        assert sample_cooperation_targets(set(), 2, rng) == frozenset()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_cooperation_targets({"a"}, 0, np.random.default_rng(0))

    def test_uniformity(self):
        rng = np.random.default_rng(123)
        evs = [f"ev{i}" for i in range(10)]
        counts = {e: 0 for e in evs}
        n = 100_000
        for _ in range(n):
            (picked,) = sample_cooperation_targets(evs, 1, rng)
            counts[picked] += 1
        # Binomial(n, 0.1): 3-sigma band around the expected frequency.
        sigma = np.sqrt(n * 0.1 * 0.9)
        for e in evs:
            assert abs(counts[e] - n * 0.1) < 3 * sigma


class TestEvReward:
    def test_congestion_dominates_cost(self):
        assert ev_reward(0.2, [1.0, 0.0]) == -1.0

    def test_cost_branch(self):
        assert ev_reward(0.3, [0.0, 0.0]) == pytest.approx(0.7)
        assert ev_reward(0.3, []) == pytest.approx(0.7)

    def test_overvoltage_rewards_charging(self):
        assert ev_reward(0.9, [-1.0]) == 1.0

    def test_cost_range_enforced(self):
        with pytest.raises(ValueError):
            ev_reward(1.2, [])

    @given(cost=st.floats(0.0, 1.0),
           crits=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_reward_bounds(self, cost, crits):
        assert -1.0 <= ev_reward(cost, crits) <= 1.0


def one_ev(p, theta=None, phi=None):
    """A one-row fleet in a fresh session of `p`, with its sampled theta
    and PV estimate phi (watt per local instant)."""
    w = p.window_length
    fleet = Fleet([p], w, delta_i=15.0)
    fleet.plug_in([0], 0)
    fleet.hold_samples([0], np.zeros((1, w)) if theta is None else [theta],
                       np.zeros((1, w)) if phi is None else [phi])
    return fleet


def need(p, phi, k_p, now):
    """required_instants for one EV at local instant `now`, under the PV
    estimate phi (watt per instant of its window) summed over the rest of
    the window."""
    ahead = np.cumsum(phi[::-1])[::-1]
    return int(required_instants(one_ev(p), 15.0, ahead[now], k_p, now)[0])


def decide(fleet, now, requests):
    """ev_decide for the one-row fleet at local instant `now`, with the
    requests it received the instant before."""
    fleet.now[0] = now
    roster = Roster(fleet, [0])
    take_requests(roster, {fleet.ev_ids[0]: requests})
    return float(ev_decide(roster)[0])


class TestRequiredInstants:
    def test_paper_parameters_no_pv(self):
        p = profile()  # 52 kWh, dSoC 0.3, 7 kW, 0.95
        assert need(p, np.zeros(60), 0, 0) == 10

    def test_zero_need(self):
        p = profile(soc_target=0.5)
        assert need(p, np.zeros(60), 0, 0) == 0

    def test_pv_credit_and_k_p(self):
        p = profile()
        # 13.3 kW-instants of estimated PV, spread over the remaining window.
        phi = np.zeros(60)
        phi[0] = 13_300.0
        assert need(p, phi, 3, 0) == 5

    def test_clamped_to_remaining(self):
        p = profile(t_depart=5, soc_target=1.0)
        assert need(p, np.zeros(5), 0, 2) == 3

    def test_pv_sum_excludes_past(self):
        p = profile()
        phi = np.zeros(60)
        phi[0] = 1e9  # already behind us at now=1
        assert need(p, phi, 0, 1) == 10

    def test_now_outside_window_rejected(self):
        with pytest.raises(ValueError):
            required_instants(one_ev(profile()), 15.0, 0.0, 0, 60)

    @given(soc_start=st.floats(0.0, 0.8), k_p=st.integers(0, 20),
           now=st.integers(0, 59))
    @settings(max_examples=100, deadline=None)
    def test_k_f_conservation_zero_pv(self, soc_start, k_p, now):
        p = profile(soc_start=soc_start)
        k_f = need(p, np.zeros(60), k_p, now)
        per_instant_kwh = p.p_max * p.eta_chrg * 0.25
        need_kwh = p.e_bat * (p.soc_target - p.soc_start)
        needed_total = int(np.ceil(need_kwh / per_instant_kwh - 1e-12))
        assert k_p + k_f >= min(needed_total, k_p + (60 - now))


class TestEvDecide:
    def test_fully_charged_idles(self):
        p = profile(soc_target=0.5)
        assert decide(one_ev(p), 0, []) == 0.0

    def test_best_instant_charges(self):
        p = profile()
        theta = np.zeros(60)
        theta[0] = 5.0
        assert decide(one_ev(p, theta), 0, []) == p.p_max

    def test_unselected_instant_idles(self):
        p = profile()
        theta = np.arange(60, dtype=float)  # now=0 is the worst instant
        assert decide(one_ev(p, theta), 0, []) == 0.0

    def test_curtailment_overrides_selection(self):
        p = profile()
        theta = np.zeros(60)
        theta[0] = 5.0
        curtail = req(1.0, targets={"ev0"})
        assert decide(one_ev(p, theta), 0, [curtail]) == 0.0

    def test_curtailment_ignores_untargeted(self):
        p = profile()
        theta = np.zeros(60)
        theta[0] = 5.0
        other = req(1.0, targets={"ev9"})
        assert decide(one_ev(p, theta), 0, [other]) == p.p_max

    def test_overvoltage_forces_charge(self):
        p = profile()
        theta = np.arange(60, dtype=float)  # would not pick now
        boost = req(-1.0, targets={"ev0"}, kind="bus")
        assert decide(one_ev(p, theta), 0, [boost]) == p.p_max

    def test_overvoltage_noop_when_full(self):
        p = profile(soc_target=0.5)
        boost = req(-1.0, targets={"ev0"}, kind="bus")
        assert decide(one_ev(p), 0, [boost]) == 0.0

    def test_played_instants_excluded_from_candidates(self):
        p = profile(t_depart=4, soc_target=0.56)
        fleet = one_ev(p, theta=np.array([0.0, 9.0, 1.0, 0.5]))
        fleet.played[0, 1] = 1.0
        fleet.k_p[0] = 1
        # k_f at now=2 still wants one more instant; instant 1 is spent, so
        # the top remaining candidate is instant 2.
        assert decide(fleet, 2, []) == p.p_max

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_curtailment_supremacy(self, seed):
        rng = np.random.default_rng(seed)
        p = profile()
        fleet = one_ev(p, theta=rng.normal(size=60))
        fleet.soc[0] = float(rng.uniform(0.0, 1.0))
        curtail = req(1.0, targets={"ev0"})
        now = int(rng.integers(0, 60))
        assert decide(fleet, now, [curtail]) == 0.0

    @given(windows=st.lists(st.integers(1, 16), min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_top_k_selection(self, windows, data):
        # Independent check, several EVs with their own windows, now, k_p
        # and phi in one call: each charges now exactly when now is among
        # the top k_f instants of its remaining window that
        # select_super_arm picks. Columns past a window hold a theta that
        # would beat every instant inside it.
        m = 16
        fleet = Fleet([profile(ev_id=f"ev{r}", t_depart=w)
                       for r, w in enumerate(windows)], m, delta_i=15.0)
        rows = np.arange(len(windows))
        fleet.plug_in(rows, 0)
        theta = np.full((len(windows), m), 9.0)
        phi = np.zeros((len(windows), m))
        for r, w in enumerate(windows):
            theta[r, :w] = data.draw(st.lists(
                st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
                min_size=w, max_size=w))
            phi[r, :w] = data.draw(st.lists(
                st.sampled_from([0.0, 500.0, 3000.0]),
                min_size=w, max_size=w))
            fleet.k_p[r] = data.draw(st.integers(0, 10))
            fleet.now[r] = data.draw(st.integers(0, w - 1))
        fleet.hold_samples(rows, theta, phi)
        got = ev_decide(Roster(fleet, rows)) == fleet.p_max
        for r, w in enumerate(windows):
            now = int(fleet.now[r])
            k_f = need(profile(t_depart=w), phi[r, :w], int(fleet.k_p[r]),
                       now)
            picked = now in select_super_arm(theta[r], range(now, w), k_f)
            assert got[r] == picked


def beaten_by_double_loop(theta, windows, m):
    """For each row and local instant l inside its window, the later
    instants of the window with a strictly larger theta; 0 elsewhere."""
    out = np.zeros((len(windows), m), dtype=np.int64)
    for r, w in enumerate(windows):
        for l in range(w):
            out[r, l] = sum(theta[r, j] > theta[r, l] for j in range(l + 1, w))
    return out


class TestRankTable:
    @pytest.mark.parametrize("chunk", [agents.RANK_CHUNK, 1],
                             ids=["one-chunk", "row-chunks"])
    @pytest.mark.parametrize("m", [1, 5, 24])
    def test_matches_double_loop(self, monkeypatch, m, chunk):
        # Heavy ties: theta takes three values. Windows of 1, of m, and in
        # between; columns past a window hold a theta that would beat
        # every instant inside it.
        monkeypatch.setattr(agents, "RANK_CHUNK", chunk)
        rng = np.random.default_rng(m)
        windows = [1, m, *rng.integers(1, m + 1, size=6).tolist()]
        fleet = Fleet([profile(ev_id=f"ev{r}", t_depart=w)
                       for r, w in enumerate(windows)], m)
        rows = np.arange(len(windows))
        theta = rng.choice([-0.5, 0.0, 0.5], size=(len(windows), m))
        held = np.where(np.arange(m) < np.array(windows)[:, None], theta,
                        9.0)
        fleet.plug_in(rows, 0)
        fleet.hold_samples(rows, held, np.zeros((len(windows), m)))
        assert (fleet.beaten_by
                == beaten_by_double_loop(theta, windows, m)).all()

    def test_counts_past_a_byte(self):
        # A rising theta over 300 instants: instant l is beaten by every
        # later one, 299 at l = 0, more than a byte holds.
        m = 300
        fleet = Fleet([profile(t_depart=m)], m)
        fleet.plug_in([0], 0)
        fleet.hold_samples([0], np.arange(m, dtype=float)[None],
                           np.zeros((1, m)))
        assert fleet.beaten_by[0].tolist() == list(range(m - 1, -1, -1))

    def test_new_rows_leave_other_rows_alone(self):
        m = 12
        windows = [12, 3, 7, 9]
        fleet = Fleet([profile(ev_id=f"ev{r}", t_depart=w)
                       for r, w in enumerate(windows)], m)
        rng = np.random.default_rng(5)
        theta = rng.choice([0.0, 1.0], size=(4, m))
        fleet.plug_in([0, 1, 2, 3], 0)
        fleet.hold_samples([0, 1, 2, 3], theta, np.zeros((4, m)))
        first = fleet.beaten_by.copy()
        # Rows 1 and 3 start a new session with short windows' maximum 9.
        again = rng.choice([0.0, 1.0], size=(2, m))
        fleet.plug_in([3, 1], 1)
        fleet.hold_samples([3, 1], again, np.zeros((2, m)))
        want = beaten_by_double_loop(again, [9, 3], m)
        assert (fleet.beaten_by[[3, 1]] == want).all()
        assert (fleet.beaten_by[[0, 2]] == first[[0, 2]]).all()


class TestEvRecord:
    def test_charged_records_reward(self):
        fleet = one_ev(profile())
        fleet.now[0] = 3
        roster = Roster(fleet, [0])
        ev_record(roster, [True], 0.2, [[]], [500.0])
        assert fleet.played[0, 3] == 1.0
        assert roster.k_p[0] == 1
        assert fleet.reward[0, 3] == pytest.approx(0.8)
        assert fleet.pv_obs[0, 3] == 500.0
        roster.keep(np.zeros(1, dtype=bool))
        assert roster.size == 0
        assert fleet.k_p[0] == 1

    def test_uncharged_still_records_pv(self):
        fleet = one_ev(profile())
        fleet.now[0] = 3
        roster = Roster(fleet, [0])
        ev_record(roster, [False], 0.2, [[1.0]], [500.0])
        assert fleet.played[0, 3] == 0.0
        assert fleet.reward[0, 3] == 0.0
        assert fleet.pv_mask[0, 3] == 1.0
        assert roster.k_p[0] == 0

    def test_charged_during_congestion(self):
        fleet = one_ev(profile())
        ev_record(Roster(fleet, [0]), [True], 0.2, [[1.0]], [0.0])
        assert fleet.reward[0, 0] == -1.0
