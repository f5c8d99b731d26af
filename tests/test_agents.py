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
from gridcharge.gridnet import (Bus, Line, NetworkTopology,
                                build_replicated_feeder)
from helpers import amas, defaults, flood_by_id, plugged_in


def req(crit, origin="x", kind="line", targets=()):
    return CriticalityRequest(criticality=crit,
                              target_rows=np.array(sorted(targets),
                                                   dtype=np.int64),
                              origin_agent=origin, origin_kind=kind)


def profile(**kw):
    base = dict(ev_id="ev0", bus_id="b0", e_bat=52.0, p_max=7.0,
                eta_chrg=0.95, soc_start=0.5, soc_target=0.8,
                t_arrive=0, t_depart=60)
    base.update(kw)
    return EvProfile(**base)


class TestEvProfile:
    @pytest.mark.parametrize("bad, match", [
        (dict(t_depart=0), "t_arrive must precede t_depart"),
        (dict(soc_start=0.9), "soc_start <= soc_target"),
        (dict(soc_target=1.5), "soc_start <= soc_target"),
        (dict(eta_chrg=0.0), "eta_chrg must be in"),
        (dict(e_bat=0.0), "e_bat and p_max must be > 0"),
        (dict(p_max=-7.0), "e_bat and p_max must be > 0"),
    ], ids=["empty-window", "soc-start-above-target",
            "soc-target-above-one", "eta-zero", "e_bat-zero",
            "p_max-negative"])
    def test_variant_checked_like_the_constructor(self, bad, match):
        # A variant is built through the constructor, so `_replace` cannot
        # make a profile the constructor would reject.
        ev = profile()
        with pytest.raises(ValueError, match=match):
            profile(**bad)
        with pytest.raises(ValueError, match=match):
            ev._replace(**bad)

    def test_variant(self):
        ev = profile()._replace(t_arrive=10, t_depart=30)
        assert type(ev) is EvProfile
        assert ev == profile(t_arrive=10, t_depart=30)
        assert ev.window_length == 20
        with pytest.raises(ValueError, match="t_arrive must precede"):
            ev._replace(t_depart=ev.t_arrive)


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
            CriticalityRequest(0.5, np.zeros(0, dtype=np.int64), "a",
                               "house")


def chain():
    """The agent graph of the feeder slack -l_d0b0- d0b0 -l_d0b1- d0b1
    -l_d0b2- d0b2 -l_d0b3- d0b3."""
    return agent_neighbors(build_replicated_feeder(defaults(
        "scenario", "topology", buses_per_feeder=4, households_per_bus=1)))


def received(requests, evs_at_bus, graph=None):
    """What each EV received, by EV id, when `requests` flood `graph`
    (default: the `chain` feeder) with the EVs `evs_at_bus` lists at each
    bus plugged in."""
    ev_bus = {ev: bus for bus, evs in evs_at_bus.items() for ev in evs}
    return flood_by_id(graph or chain(), ev_bus, requests)[0]


class TestPendingCount:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_count_follows_every_write(self, data):
        # EVs join, leave and take flooded requests in any order; after
        # each step `n_pending` is a fresh count of the pending flags.
        graph = chain()
        agents_of = {kind: [a for k, a in graph.node if k == kind]
                     for kind in ("bus", "line")}
        n = 6
        roster = plugged_in(graph, {f"ev{r}": data.draw(st.sampled_from(
            agents_of["bus"])) for r in range(n)}, rows=[])
        for _ in range(data.draw(st.integers(1, 10))):
            step = data.draw(st.sampled_from(["join", "keep", "take"]))
            if step == "join":
                out = sorted(set(range(n)) - set(roster.rows.tolist()))
                roster.join(data.draw(st.lists(st.sampled_from(out),
                                               unique=True)) if out else [])
            elif step == "keep":
                roster.keep(np.array(data.draw(st.lists(
                    st.booleans(), min_size=roster.size,
                    max_size=roster.size)), dtype=bool))
            else:
                origins = data.draw(st.lists(st.tuples(
                    st.sampled_from(["bus", "line"]), st.integers(0, 3)),
                    unique=True, max_size=4))
                initial = [req(data.draw(st.sampled_from([1.0, -1.0, 0.5])),
                               agents_of[kind][k], kind, data.draw(st.sets(
                                   st.integers(0, n - 1))))
                           for kind, k in origins]
                received, _ = flood_requests(graph, roster, initial)
                take_requests(roster, received)
            assert roster.n_pending == np.count_nonzero(roster.pending)


class TestForwardRequest:
    """The rule every line and bus applies to the requests it receives in
    one flooding round, given the request it already holds, seen in what
    the EVs behind it receive."""

    def test_line_forwards_own_when_most_critical(self):
        # l_d0b3 keeps its own +1 against the -1 of bus d0b2 beside it and
        # against the +1 of l_d0b1, whose origin id is lower.
        own = req(1.0, origin="l_d0b3", targets={1})
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
        assert flood_by_id(chain(), {"ev0": "d0b0"}, []) == ({}, 0)
        # A lone bus holding its own request has no one to send it to.
        lone = agent_neighbors(NetworkTopology([Bus("b0")], [], "b0"))
        assert flood_by_id(lone, {}, [req(1.0, origin="b0",
                                          kind="bus")]) == ({}, 0)

    def test_overvoltage_own_request_forwarded(self):
        # d0b1 keeps its own -1 against the equal -1 of d0b3.
        over = req(-1.0, origin="d0b3", kind="bus", targets={2})
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
        own = req(1.0, origin="d0b3", kind="bus", targets={0})
        congested = req(1.0, origin="l_d0b3", kind="line", targets={1})
        got = received([own, congested], {"d0b3": ["ev4"], "d0b2": ["ev5"]})
        assert got == {"ev4": [own], "ev5": [congested]}

    def test_forwarded_criticality_is_max_in_sight(self):
        # The top level reaches every bus; what an EV receives improves
        # strictly and ends at it.
        rng = np.random.default_rng(12)
        crits = [-1.0, -0.5, 0.5, 1.0]
        graph = chain()
        origins = list(graph.node)
        evs = {bus: [f"ev_{bus}"] for kind, bus in graph.node
               if kind == "bus"}
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
        pool = np.array([4, 0, 7])
        assert sorted(sample_cooperation_targets(pool, 10, rng)) == [0, 4, 7]

    def test_empty_pool(self):
        rng = np.random.default_rng(0)
        pool = np.zeros(0, dtype=np.int64)
        assert sample_cooperation_targets(pool, 2, rng).size == 0

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_cooperation_targets(np.array([1]), 0,
                                       np.random.default_rng(0))

    def test_uniformity(self):
        rng = np.random.default_rng(123)
        evs = np.arange(10)
        counts = {e: 0 for e in evs.tolist()}
        n = 100_000
        for _ in range(n):
            (picked,) = sample_cooperation_targets(evs, 1, rng)
            counts[int(picked)] += 1
        # Binomial(n, 0.1): 3-sigma band around the expected frequency.
        sigma = np.sqrt(n * 0.1 * 0.9)
        for e in evs:
            assert abs(counts[e] - n * 0.1) < 3 * sigma


class TestEvReward:
    def test_congestion_dominates_cost(self):
        assert ev_reward(0.2, 1.0) == -1.0

    def test_cost_branch(self):
        assert ev_reward(0.3, 0.0) == pytest.approx(0.7)

    def test_overvoltage_rewards_charging(self):
        assert ev_reward(0.9, -1.0) == 1.0

    def test_one_reward_per_row(self):
        top = np.array([1.0, 0.0, -0.5])
        assert ev_reward(0.25, top).tolist() == [-1.0, 0.75, 0.5]

    def test_cost_range_enforced(self):
        with pytest.raises(ValueError):
            ev_reward(1.2, 0.0)
        with pytest.raises(ValueError):
            ev_reward(1.2, None)

    @given(cost=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_no_request_is_the_cost_branch(self, cost):
        # None (no row received a request) gives the one float the cost
        # branch gives every row.
        got = ev_reward(cost, None)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.asarray(
            ev_reward(cost, 0.0)).tobytes()

    @given(cost=st.floats(0.0, 1.0), top=st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_reward_bounds(self, cost, top):
        assert -1.0 <= ev_reward(cost, top) <= 1.0


def one_ev(p, theta=None, phi=None):
    """A one-row fleet of 96 instants a day in a fresh session of `p`, and
    the learner attached to it, holding the session's sampled theta and
    PV estimate phi (watt per local instant of the window)."""
    fleet, learner = Fleet([p], 96), amas()
    learner.attach(fleet)
    fleet.plug_in([0])
    held = np.zeros((2, 1, 96))
    for sample, values in zip(held, (theta, phi)):
        if values is not None:
            sample[0, :len(values)] = values
    learner.hold_samples(fleet, [0], *held)
    return fleet, learner


def need(p, phi, k_p, now):
    """required_instants for one EV at local instant `now`, under the PV
    estimate phi (watt per instant of its window) summed over the rest of
    the window."""
    ahead = np.cumsum(phi[::-1])[::-1]
    return int(required_instants(one_ev(p)[0], 15.0, ahead[now], k_p,
                                 now)[0])


def in_session(fleet, rows, now=0, **columns):
    """A roster of the fleet's `rows` at local instant `now` (one value, or
    one per row), with the given session columns set the same way; the
    pending flags `curtail` and `force` go through `set_pending`."""
    roster = Roster(fleet, rows)
    roster.now[:] = now
    roster.flat += roster.now
    flags = [np.broadcast_to(columns.pop(name, 0), roster.size)
             for name in ("curtail", "force")]
    roster.set_pending(flags)
    for name, value in columns.items():
        getattr(roster, name)[:] = value
    return roster


def decide(ev, now, requests, **columns):
    """ev_decide for the one-row fleet and learner `ev` (see `one_ev`) at
    local instant `now`, with the requests it received the instant before
    and the given session columns."""
    fleet, learner = ev
    roster = in_session(fleet, [0], now, **columns)
    take_requests(roster, {0: requests})
    return float(ev_decide(roster, learner.short, learner.slack)[0])


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
            required_instants(one_ev(profile())[0], 15.0, 0.0, 0, 60)

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
        curtail = req(1.0, targets={0})
        assert decide(one_ev(p, theta), 0, [curtail]) == 0.0

    def test_curtailment_ignores_untargeted(self):
        p = profile()
        theta = np.zeros(60)
        theta[0] = 5.0
        other = req(1.0)                   # names no EV
        assert decide(one_ev(p, theta), 0, [other]) == p.p_max

    def test_overvoltage_forces_charge(self):
        p = profile()
        theta = np.arange(60, dtype=float)  # would not pick now
        boost = req(-1.0, targets={0}, kind="bus")
        assert decide(one_ev(p, theta), 0, [boost]) == p.p_max

    def test_overvoltage_noop_when_full(self):
        p = profile(soc_target=0.5)
        boost = req(-1.0, targets={0}, kind="bus")
        assert decide(one_ev(p), 0, [boost]) == 0.0

    def test_charged_instants_count_against_the_need(self):
        # Two instants meet the need. With one charged (k_p=1), k_f at
        # now=2 still wants one more, and instant 2 is the top remaining
        # candidate; with two charged, nothing is left to charge.
        p = profile(t_depart=4, soc_target=0.56)
        ev = one_ev(p, theta=np.array([0.0, 9.0, 1.0, 0.5]))
        assert decide(ev, 2, [], k_p=1) == p.p_max
        assert decide(ev, 2, [], k_p=2) == 0.0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_curtailment_supremacy(self, seed):
        rng = np.random.default_rng(seed)
        p = profile()
        ev = one_ev(p, theta=rng.normal(size=60))
        soc = float(rng.uniform(0.0, 1.0))
        curtail = req(1.0, targets={0})
        now = int(rng.integers(0, 60))
        assert decide(ev, now, [curtail], soc=soc) == 0.0

    @given(windows=st.lists(st.integers(1, 16), min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_top_k_selection(self, windows, data):
        # Independent check, several EVs with their own windows, now, k_p,
        # phi and pending flags in one call: an EV with a pending curtail
        # never charges; else one with a pending force charges exactly
        # when the reference k_f is positive; else each charges now
        # exactly when now is among the top k_f instants of its remaining
        # window that select_super_arm picks. Columns past a window hold a
        # theta that would beat every instant inside it.
        m = 96
        fleet = Fleet([profile(ev_id=f"ev{r}", t_depart=w)
                       for r, w in enumerate(windows)], m)
        learner = amas()
        learner.attach(fleet)
        rows = np.arange(len(windows))
        fleet.plug_in(rows)
        theta = np.full((len(windows), m), 9.0)
        phi = np.zeros((len(windows), m))
        k_p, now = [], []
        for r, w in enumerate(windows):
            theta[r, :w] = data.draw(st.lists(
                st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
                min_size=w, max_size=w))
            phi[r, :w] = data.draw(st.lists(
                st.sampled_from([0.0, 500.0, 3000.0]),
                min_size=w, max_size=w))
            k_p.append(data.draw(st.integers(0, 10)))
            now.append(data.draw(st.integers(0, w - 1)))
        curtail, force = (data.draw(st.lists(st.integers(0, 1),
                                             min_size=len(windows),
                                             max_size=len(windows)))
                          for _ in range(2))
        learner.hold_samples(fleet, rows, theta, phi)
        got = ev_decide(in_session(fleet, rows, now, k_p=k_p,
                                   curtail=curtail, force=force),
                        learner.short, learner.slack)
        for r, w in enumerate(windows):
            k_f = need(profile(t_depart=w), phi[r, :w], k_p[r], now[r])
            if curtail[r]:
                want = False
            elif force[r]:
                want = k_f > 0
            else:
                want = now[r] in select_super_arm(theta[r],
                                                  range(now[r], w), k_f)
            assert (got[r] == fleet.p_max[r]) == want


def beaten_by_double_loop(theta, windows, m):
    """For each row and local instant l inside its window, the later
    instants of the window with a strictly larger theta; 0 elsewhere."""
    out = np.zeros((len(windows), m), dtype=np.int64)
    for r, w in enumerate(windows):
        for l in range(w):
            out[r, l] = sum(theta[r, j] > theta[r, l] for j in range(l + 1, w))
    return out


def later_mask(width):
    """The `rank_table` mask [l, l'] = l' > l over `width` columns."""
    cols = np.arange(width)
    return cols > cols[:, None]


class TestRankTable:
    @pytest.mark.parametrize("chunk", [agents.RANK_CHUNK, 1],
                             ids=["one-chunk", "row-chunks"])
    @pytest.mark.parametrize("m", [1, 5, 24])
    def test_matches_double_loop(self, monkeypatch, m, chunk):
        # Heavy ties: theta takes three values. Windows of 1, of m, and in
        # between; columns past a window hold -inf, as `hold_samples`
        # passes them.
        monkeypatch.setattr(agents, "RANK_CHUNK", chunk)
        rng = np.random.default_rng(m)
        windows = [1, m, *rng.integers(1, m + 1, size=6).tolist()]
        theta = rng.choice([-0.5, 0.0, 0.5], size=(len(windows), m))
        held = np.where(np.arange(m) < np.array(windows)[:, None], theta,
                        -np.inf)
        assert (agents.rank_table(held, later_mask(m))
                == beaten_by_double_loop(theta, windows, m)).all()

    def test_counts_past_a_byte(self):
        # A rising theta over 300 instants: instant l is beaten by every
        # later one, 299 at l = 0, more than a byte holds.
        m = 300
        got = agents.rank_table(np.arange(m, dtype=float)[None],
                                later_mask(m))
        assert got[0].tolist() == list(range(m - 1, -1, -1))

    def test_new_rows_leave_other_rows_alone(self):
        # With no PV, `short` is one need per row, and `slack` is `short`
        # less the rank table: a new session rewrites only its own rows.
        m = 12
        windows = [12, 3, 7, 9]
        fleet = Fleet([profile(ev_id=f"ev{r}", t_depart=w)
                       for r, w in enumerate(windows)], m)
        learner = amas()
        learner.attach(fleet)
        rng = np.random.default_rng(5)
        theta = rng.choice([0.0, 1.0], size=(4, m))
        fleet.plug_in([0, 1, 2, 3])
        learner.hold_samples(fleet, [0, 1, 2, 3], theta, np.zeros((4, m)))
        first = learner.slack.copy()
        # Rows 1 and 3 start a new session with short windows' maximum 9.
        again = rng.choice([0.0, 1.0], size=(2, m))
        fleet.plug_in([3, 1])
        learner.hold_samples(fleet, [3, 1], again, np.zeros((2, m)))
        want = beaten_by_double_loop(again, [9, 3], m)
        assert (learner.short[[3, 1]] - learner.slack[[3, 1]] == want).all()
        assert (learner.slack[[0, 2]] == first[[0, 2]]).all()


class TestEvRecord:
    def test_charged_records_reward(self):
        # The learner's feedback books the played mask and the PV reading
        # on top of `ev_record`'s count and reward.
        fleet, learner = one_ev(profile())
        roster = in_session(fleet, [0], 3)
        learner.feedback(roster, [True], 0.2, np.zeros(1), [500.0])
        assert learner.played[0, 3] == 1.0
        assert roster.k_p[0] == 1
        assert fleet.reward[0, 3] == pytest.approx(0.8)
        assert learner.pv_obs[0, 3] == 500.0
        roster.keep(np.zeros(1, dtype=bool))
        assert roster.size == 0
        # The count left with the roster; the fleet keeps the start state.
        assert fleet.k_p[0] == 0

    def test_uncharged_still_records_pv(self):
        fleet, learner = one_ev(profile())
        roster = in_session(fleet, [0], 3)
        learner.feedback(roster, [False], 0.2, np.ones(1), [500.0])
        assert learner.played[0, 3] == 0.0
        assert fleet.reward[0, 3] == 0.0
        assert learner.pv_obs[0, 3] == 500.0
        assert roster.k_p[0] == 0

    def test_charged_during_congestion(self):
        fleet, _ = one_ev(profile())
        ev_record(Roster(fleet, [0]), [True], 0.2, np.ones(1))
        assert fleet.reward[0, 0] == -1.0
