"""Thompson-Sampling learner tests against enumeration and least-squares oracles."""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge.bandit import (REWARD_PRIOR_MEAN, BanditState,
                               sample_parameter, select_super_arm, update_day,
                               update_pv)
from gridcharge.strategies import AmasStrategy
from helpers import SuperArm, pseudo_regret


def brute_force_top_k(theta, candidates, k):
    """Best size-k subset by exhaustive enumeration (ties: lowest indices)."""
    best = None
    for combo in itertools.combinations(sorted(candidates), k):
        val = sum(theta[i] for i in combo)
        if best is None or val > best[0] + 1e-15:
            best = (val, combo)
    return set(best[1]) if best else set()


def lstsq_one_hot(masks, value_vectors, m, prior_mean):
    """Independent oracle for the posterior mean: least squares over the
    stacked observations, one row e_i per observed instant i with its value
    as target, plus one prior pseudo-observation (e_i, prior_mean) per
    instant."""
    rows = [np.eye(m)]
    targets = [np.full(m, prior_mean)]
    for mask, values in zip(masks, value_vectors):
        seen = np.flatnonzero(mask)
        rows.append(np.eye(m)[seen])
        targets.append(np.asarray(values)[seen])
    return np.linalg.lstsq(np.vstack(rows), np.concatenate(targets),
                           rcond=None)[0]


class TestSampleParameter:
    def test_zero_scale_returns_mean(self):
        st_ = BanditState(np.array([1.0, 2.0, 4.0, 8.0]),
                          np.array([1.0, 2.0, 3.0, 4.0]), 0.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert np.array_equal(sample_parameter(st_, rng), st_.estimate)
        assert rng.bit_generator.state == before   # nothing drawn

    def test_standard_normal_mean(self):
        st_ = BanditState.initial(3, 1.0, 0.0)
        rng = np.random.default_rng(1)
        draws = np.array([sample_parameter(st_, rng) for _ in range(100_000)])
        # Per-coordinate mean within 3 sigma / sqrt(n) of zero.
        assert np.all(np.abs(draws.mean(axis=0)) < 3.0 / np.sqrt(100_000))

    def test_covariance_scales_with_precision(self):
        st_ = BanditState.initial(3, 1.0, 0.0)
        st_.precision *= 4.0
        rng = np.random.default_rng(2)
        draws = np.array([sample_parameter(st_, rng) for _ in range(50_000)])
        assert np.allclose(draws.var(axis=0), 0.25, atol=0.01)

    def test_pv_draw_matches_dense_cholesky(self):
        # One draw is estimate + scale * z / sqrt(precision) for the seeded
        # normals z, and matches what a dense posterior with precision
        # matrix diag(precision) draws from the same normals.
        rng = np.random.default_rng(3)
        precision = rng.integers(1, 60, size=8).astype(float)
        st_ = BanditState(precision, rng.uniform(0, 9e4, 8), 250.0)
        for seed in range(20):
            got = sample_parameter(st_, np.random.default_rng(seed))
            z = np.random.default_rng(seed).standard_normal(8)
            assert np.array_equal(
                got, st_.estimate + st_.scale * (z / np.sqrt(precision)))
            chol = np.linalg.cholesky(np.diag(precision))
            want = st_.estimate + st_.scale * np.linalg.solve(chol.T, z)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_pv_variance_is_scale_squared_over_precision(self):
        precision = np.array([1.0, 4.0, 25.0])
        st_ = BanditState(precision, np.zeros(3), 2.0)
        rng = np.random.default_rng(4)
        draws = np.array([sample_parameter(st_, rng) for _ in range(50_000)])
        assert np.allclose(draws.var(axis=0) / (4.0 / precision), 1.0,
                           atol=0.03)


def fleet_learners(n, m, **kwargs):
    strategy = AmasStrategy(**kwargs)
    strategy.attach(SimpleNamespace(ev_ids=[f"ev{i}" for i in range(n)], m=m))
    return strategy


class TestFleetLearners:
    @pytest.mark.parametrize("alpha, beta", [(0.5, 360.0), (0.0, 360.0),
                                             (0.5, 0.0)])
    def test_matches_per_ev_draws(self, alpha, beta):
        # The strategy draws every starting row's theta and phi in one
        # block; it must draw what one call per EV and learner, reward
        # learner first, draws from the same generator.
        m, n = 6, 5
        strategy = fleet_learners(n, m, alpha=alpha, beta=beta)
        data = np.random.default_rng(8)
        for _ in range(4):   # distinct precisions and estimates per row
            mask = (data.random((n, m)) < 0.5).astype(float)
            update_day(strategy.bandit, mask, mask * data.random((n, m)))
            update_pv(strategy.pv, mask, mask * data.uniform(0, 900, (n, m)))
        rows = np.array([3, 0, 4])
        held = {}
        fleet = SimpleNamespace(hold_samples=lambda r, theta, phi:
                                held.update(theta=theta, phi=phi))
        rng = np.random.default_rng(21)
        strategy.session_start(fleet, rows, rng)

        ref_rng = np.random.default_rng(21)
        for k, idx in enumerate(rows):
            for learner, got in ((strategy.bandit, held["theta"]),
                                 (strategy.pv, held["phi"])):
                one = BanditState(learner.precision[idx].copy(),
                                  learner.response[idx].copy(), learner.scale)
                want = sample_parameter(one, ref_rng)
                assert want.tobytes() == got[k].tobytes(), (idx, learner)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_session_end_matches_per_ev_updates(self):
        # The departing rows take one masked add per learner; it must equal
        # one update per EV and learner, and leave the other rows alone.
        m, n = 6, 5
        strategy = fleet_learners(n, m)
        data = np.random.default_rng(9)
        played = (data.random((n, m)) < 0.4).astype(float)
        fleet = SimpleNamespace(played=played,
                                reward=played * data.random((n, m)),
                                pv_mask=np.ones((n, m)),
                                pv_obs=data.uniform(0, 900, (n, m)))
        rows = np.array([4, 1])
        want = {}
        for name, mask, values in (("bandit", fleet.played, fleet.reward),
                                   ("pv", fleet.pv_mask, fleet.pv_obs)):
            learner = getattr(strategy, name)
            want[name] = [BanditState(learner.precision[i].copy(),
                                      learner.response[i].copy(),
                                      learner.scale) for i in range(n)]
            for i in rows:
                update_day(want[name][i], mask[i], values[i])
        strategy.session_end(fleet, rows)
        for name, states in want.items():
            learner = getattr(strategy, name)
            for i, one in enumerate(states):
                assert learner.precision[i].tobytes() == \
                    one.precision.tobytes(), (name, i)
                assert learner.response[i].tobytes() == \
                    one.response.tobytes(), (name, i)


class TestSelectSuperArm:
    def test_spec_example(self):
        arm = select_super_arm(np.array([0.9, 0.1, 0.5, 0.7]), {0, 1, 2, 3}, 2)
        assert arm == (0, 3)

    def test_k_zero(self):
        arm = select_super_arm(np.array([1.0, 2.0]), {0, 1}, 0)
        assert len(arm) == 0

    def test_all_candidates_forced(self):
        arm = select_super_arm(np.array([0.0, 0.0, -1.0, -2.0]), {2, 3}, 2)
        assert arm == (2, 3)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_super_arm(np.zeros(4), {0, 1}, 3)

    def test_tie_breaks_to_lowest_index(self):
        arm = select_super_arm(np.array([0.5, 0.5, 0.5, 0.5]), range(4), 2)
        assert arm == (0, 1)

    def test_returns_sorted_instants(self):
        arm = select_super_arm(np.array([0.1, 0.2, 0.9, 0.4, 0.7]), range(5),
                               3)
        assert arm == (2, 3, 4)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(2, 13))
            theta = rng.normal(size=m)
            n_cand = int(rng.integers(1, m + 1))
            candidates = set(rng.choice(m, size=n_cand, replace=False).tolist())
            k = int(rng.integers(0, min(4, n_cand) + 1))
            arm = SuperArm(select_super_arm(theta, candidates, k))
            assert arm.value(theta) == pytest.approx(
                sum(theta[i] for i in brute_force_top_k(theta, candidates, k)),
                abs=1e-12)

    @given(perm_seed=st.integers(0, 2**31), data_seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, perm_seed, data_seed):
        m, k = 8, 3
        rng = np.random.default_rng(data_seed)
        theta = rng.normal(size=m)
        # Strictly distinct values so the top-k set is unique.
        theta = np.sort(theta) + np.arange(m) * 1e-6
        perm = np.random.default_rng(perm_seed).permutation(m)
        base = select_super_arm(theta, range(m), k)
        permuted = select_super_arm(theta[perm], range(m), k)
        inv = np.argsort(perm)
        assert {int(inv[i]) for i in base} == {int(p) for p in permuted}


class TestSuperArm:
    def test_mask_and_membership(self):
        arm = SuperArm((3, 1, 1))
        assert arm.instants == (1, 3)
        assert 1 in arm and 2 not in arm
        assert np.array_equal(arm.mask(5), [0, 1, 0, 1, 0])

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            SuperArm((7,)).mask(5)


class TestUpdates:
    def test_no_play_is_identity(self):
        st_ = BanditState.initial(4, 0.5, REWARD_PRIOR_MEAN)
        out = update_day(st_, np.zeros(4), np.zeros(4))
        assert np.array_equal(out.precision, np.ones(4))
        assert np.array_equal(out.estimate, np.full(4, REWARD_PRIOR_MEAN))

    def test_single_arm_ridge_algebra(self):
        st_ = BanditState.initial(3, 0.5, REWARD_PRIOR_MEAN)
        mask = np.array([0.0, 1.0, 0.0])
        rew = np.array([0.0, 0.8, 0.0])
        out = update_day(st_, mask, rew)
        # precision_1 = 2, response_1 = 0.5 + 0.8  =>  theta_hat_1 = 0.65.
        assert out.estimate[1] == pytest.approx(0.65)
        assert out.estimate[0] == 0.5 and out.estimate[2] == 0.5

    def test_two_identical_plays(self):
        st_ = BanditState.initial(2, 0.5, REWARD_PRIOR_MEAN)
        mask = np.array([1.0, 0.0])
        rew = np.array([1.0, 0.0])
        out = update_day(update_day(st_, mask, rew), mask, rew)
        assert out.precision[0] == 3.0
        assert out.estimate[0] == pytest.approx(2.5 / 3.0)
        assert out.estimate[1] == 0.5

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(5)
        m = 10
        st_ = BanditState.initial(m, 0.5, REWARD_PRIOR_MEAN)
        masks, rews = [], []
        for _ in range(40):
            mask = (rng.random(m) < 0.4).astype(float)
            rew = mask * rng.normal(size=m)
            st_ = update_day(st_, mask, rew)
            masks.append(mask)
            rews.append(rew)
            want = lstsq_one_hot(masks, rews, m, REWARD_PRIOR_MEAN)
            assert np.allclose(st_.estimate, want, atol=1e-9)

    def test_fixed_mask_estimate_consistent(self):
        # The same instants played every day with noisy rewards: each
        # coordinate's estimate converges to its true mean.
        rng = np.random.default_rng(12)
        mask = np.ones(3)
        theta = np.array([0.3, 0.5, 0.7])
        st_ = BanditState.initial(3, 0.5, REWARD_PRIOR_MEAN)
        for _ in range(400):
            st_ = update_day(st_, mask, theta + 0.1 * rng.normal(size=3))
        assert np.max(np.abs(st_.estimate - theta)) < 0.05

    def test_rewards_off_mask_rejected(self):
        st_ = BanditState.initial(2, 0.5, REWARD_PRIOR_MEAN)
        with pytest.raises(ValueError):
            update_day(st_, np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_dimension_mismatch_rejected(self):
        st_ = BanditState.initial(3, 0.5, REWARD_PRIOR_MEAN)
        with pytest.raises(ValueError):
            update_day(st_, np.zeros(4), np.zeros(4))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_spd_preserved(self, seed):
        rng = np.random.default_rng(seed)
        m = 6
        st_ = BanditState.initial(m, 0.5, REWARD_PRIOR_MEAN)
        for _ in range(500):
            mask = (rng.random(m) < 0.5).astype(float)
            st_ = update_day(st_, mask, mask * rng.normal(size=m))
        assert st_.precision.min() >= 1.0


class TestPvUpdates:
    def test_no_observation_is_identity(self):
        st_ = BanditState.initial(3, 100.0, 0.0)
        out = update_pv(st_, np.zeros(3), np.zeros(3))
        assert np.array_equal(out.precision, np.ones(3))
        assert np.array_equal(out.estimate, np.zeros(3))

    def test_per_instant_precision(self):
        st_ = BanditState.initial(3, 100.0, 0.0)
        mask = np.array([1.0, 1.0, 0.0])
        out = update_pv(st_, mask, mask * 0.5)
        assert np.array_equal(out.precision, [2.0, 2.0, 1.0])
        assert out.estimate[0] == pytest.approx(0.25)

    def test_single_instant_convergence(self):
        st_ = BanditState.initial(4, 100.0, 0.0)
        mask = np.array([0.0, 0.0, 1.0, 0.0])
        p = 1500.0
        for d in range(1, 21):
            st_ = update_pv(st_, mask, mask * p)
            assert st_.estimate[2] == pytest.approx(p * d / (d + 1))

    def test_joint_observation_matches_direct_solve(self):
        # Oracle: the dense ridge solve (I + sum diag(mask)) x = sum obs.
        rng = np.random.default_rng(6)
        m = 7
        st_ = BanditState.initial(m, 100.0, 0.0)
        gram, z = np.eye(m), np.zeros(m)
        for _ in range(60):
            mask = (rng.random(m) < 0.6).astype(float)
            obs = mask * rng.uniform(0.0, 4000.0, m)
            st_ = update_pv(st_, mask, obs)
            gram += np.diag(mask)
            z += obs
            assert np.allclose(st_.estimate, np.linalg.solve(gram, z),
                               rtol=1e-12, atol=0.0)
            assert np.array_equal(st_.precision, np.diag(gram))

    def test_per_arm_rule_tracks_running_mean(self):
        # Each observed coordinate shrinks toward its running mean even
        # when the whole window is observed daily.
        st_ = BanditState.initial(5, 100.0, 0.0)
        mask = np.ones(5)
        obs = np.array([0.0, 100.0, 900.0, 100.0, 0.0])
        for _ in range(200):
            st_ = update_pv(st_, mask, obs)
        assert np.allclose(st_.estimate, obs * 200 / 201)

    def test_estimator_consistency_scale_zero(self):
        # Stationary per-instant readings phi_i + noise on random masks:
        # the posterior mean converges to phi on every coordinate.
        rng = np.random.default_rng(11)
        m = 6
        phi = rng.uniform(-0.5, 0.5, m)
        st_ = BanditState.initial(m, 0.0, 0.0)
        for _ in range(1000):
            mask = (rng.random(m) < 0.5).astype(float)
            obs = mask * (phi + 0.1 * rng.normal(size=m))
            st_ = update_pv(st_, mask, obs)
        assert np.max(np.abs(st_.estimate - phi)) < 0.05

    def test_no_dense_linear_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called on a learner state")
        for name in ("cholesky", "solve", "inv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        for scale, mean, values in ((0.5, REWARD_PRIOR_MEAN, mask * 0.7),
                                    (50.0, 0.0, mask * 700.0)):
            st_ = update_day(BanditState.initial(4, scale, mean), mask,
                             values)
            st_ = BanditState(st_.precision, st_.response, scale)
            assert sample_parameter(st_, np.random.default_rng(0)).shape \
                == (4,)


class TestPseudoRegret:
    def test_perfect_play_zero_regret(self):
        theta = np.array([1.0, 0.2, 0.5])
        best = SuperArm((0, 2))
        sel = [(best, theta.copy()) for _ in range(5)]
        out = pseudo_regret(theta, sel, 2)
        assert np.allclose(out["estimated"], 0.0)
        assert np.allclose(out["true"], 0.0)

    def test_single_day_example(self):
        theta = np.array([1.0, 0.0])
        sel = [(SuperArm((1,)), np.array([0.0, 0.0]))]
        out = pseudo_regret(theta, sel, 1)
        assert out["estimated"][0] == pytest.approx(1.0)
        assert out["true"][0] == pytest.approx(1.0)

    def test_true_trace_non_decreasing(self):
        rng = np.random.default_rng(9)
        theta = rng.normal(size=6)
        sel = []
        for _ in range(50):
            arm = SuperArm(tuple(rng.choice(6, size=2, replace=False).tolist()))
            sel.append((arm, rng.normal(size=6)))
        tru = pseudo_regret(theta, sel, 2)["true"]
        assert np.all(np.diff(tru) >= -1e-12)

    def test_per_day_k(self):
        theta = np.array([1.0, 0.5])
        sel = [(SuperArm((0,)), theta), (SuperArm((0, 1)), theta)]
        out = pseudo_regret(theta, sel, [1, 2])
        assert np.allclose(out["true"], 0.0)
        with pytest.raises(ValueError):
            pseudo_regret(theta, sel, [1])
