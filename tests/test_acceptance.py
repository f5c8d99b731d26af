"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. The small-scale
reference run (55 EVs, one sub-district, 60 days) is shared by the
convergence, violation, fairness, and power-flow-residual criteria.
"""
import itertools
import json

import numpy as np
import pytest

from gridcharge.bandit import (REWARD_PRIOR_MEAN, BanditState,
                               select_super_arm, update_day)
from gridcharge.cli import main
from gridcharge.engine import (EvParams, ScenarioConfig, Simulation,
                               generate_scenario)
from gridcharge.gridnet import (Bus, FeederSpec, Line, NetworkTopology,
                                solve_power_flow)
from gridcharge.metrics import fairness_index, mean_daily_reward, per_unit_costs
from gridcharge.agents import EvProfile, Fleet, required_instants
from gridcharge.strategies import (AmasStrategy, ScheduleStrategy,
                                   UncontrolledStrategy, centralized_oracle)
from helpers import SuperArm, power_mismatch, pseudo_regret, record_instants
from test_grid import by_bus


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = (f"[criterion {criterion:2d}] {name}: {status}"
            + (f"  ({detail})" if detail else ""))
    print(line)
    # Also bypass pytest's capture so the per-criterion verdicts show up
    # in a plain `pytest -v` run.
    import sys
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {criterion} ({name}): {detail}"


SMALL_SCALE = ScenarioConfig(
    feeder=FeederSpec(sub_districts=1, buses_per_feeder=11,
                      households_per_bus=5),
    fleet_size=55,
    ev=EvParams(),  # 52 kWh, 7 kW, 0.95, SoC target 0.8
    m=96,
)


@pytest.fixture(scope="module")
def small_run():
    """55-EV, 60-day learning run with its instants recorded (shared
    reference run)."""
    scenario = generate_scenario(SMALL_SCALE, 60, 1)
    return (scenario, *record_instants(Simulation(scenario, AmasStrategy())))


def test_criterion_1_convergence(small_run):
    _, result, _ = small_run
    rewards = mean_daily_reward(result.mean_reward_ev)
    assert all(r is not None for r in rewards)
    early = float(np.mean(rewards[:5]))
    plateau = float(np.mean(rewards[30:]))
    max_step = float(np.max(np.abs(np.diff(rewards[30:]))))
    ok = plateau > early and max_step < 0.05 * abs(plateau)
    report(1, "convergence", ok,
           f"days 1-5 mean {early:.4f}, days 31-60 mean {plateau:.4f}, "
           f"max day-to-day step {max_step:.4f} < {0.05 * plateau:.4f}")


def test_criterion_2_zero_violations_after_convergence(small_run):
    _, result, _ = small_run
    cur = int(result.violations_current[30:].sum())
    volt = int(result.violations_voltage[30:].sum())

    # Uncontrolled fleet on a deliberately undersized feeder must violate.
    cfg = ScenarioConfig(
        feeder=FeederSpec(sub_districts=1, buses_per_feeder=11,
                          households_per_bus=5, line_rating=60.0),
        fleet_size=55, m=96)
    sc = generate_scenario(cfg, 2, 1)
    unc = Simulation(sc, UncontrolledStrategy()).run()
    unc_viol = int(unc.violations_current.sum())

    ok = cur == 0 and volt == 0 and unc_viol > 0
    report(2, "zero violations after convergence", ok,
           f"AMAS days 31-60: {cur} current / {volt} voltage; "
           f"undersized uncontrolled: {unc_viol} violations")


def test_criterion_3_fairness(small_run):
    _, result, _ = small_run
    pu = per_unit_costs(result.cost, result.grid_energy, slice(30, 60))
    f = fairness_index(pu)
    ok = f >= 0.95
    report(3, "fairness", ok, f"index over days 31-60 = {f:.4f} >= 0.95")


def _day_cost(scenario, strategy):
    return float(Simulation(scenario, strategy).run().cost.sum())


def test_criterion_4_cost_ordering():
    cfg = ScenarioConfig(
        feeder=FeederSpec(sub_districts=1, buses_per_feeder=5,
                          households_per_bus=2),
        fleet_size=10, m=96)
    rows = []
    ok = True
    for seed in (1, 2, 3, 4, 5):
        learn = generate_scenario(cfg, 40, seed)
        amas = float(Simulation(learn, AmasStrategy())
                     .run().cost[-10:].sum(axis=1).mean())
        one_day = generate_scenario(cfg, 1, seed)
        unc = _day_cost(one_day, UncontrolledStrategy())
        plans = centralized_oracle(one_day, mode="greedy")
        orc = _day_cost(generate_scenario(cfg, 1, seed),
                        ScheduleStrategy(plans))
        ordered = orc <= amas <= unc
        ok = ok and ordered
        rows.append(f"seed {seed}: {orc:.2f} <= {amas:.2f} <= {unc:.2f}")

    # Tiny instance: AMAS converged cost within 15% of the exhaustive oracle.
    tiny = ScenarioConfig(
        feeder=FeederSpec(sub_districts=1, buses_per_feeder=2,
                          households_per_bus=2),
        fleet_size=3,
        ev=EvParams(soc_start=0.4, soc_target=0.8,
                    arrival_mean_hour=14.0, arrival_std_hour=0.0,
                    depart_mean_hour=6.0, depart_std_hour=0.0),
        m=12, household_load_w=0.0,
        irradiance_profile=np.zeros(12))
    learn = generate_scenario(tiny, 150, 2)
    amas_tiny = float(Simulation(learn, AmasStrategy(alpha=0.15))
                      .run().cost[-20:].sum(axis=1).mean())
    plans = centralized_oracle(generate_scenario(tiny, 1, 2),
                               mode="exhaustive")
    orc_tiny = _day_cost(generate_scenario(tiny, 1, 2),
                         ScheduleStrategy(plans))
    gap = amas_tiny / orc_tiny - 1.0
    ok = ok and gap <= 0.15

    report(4, "cost ordering", ok,
           "; ".join(rows) + f"; tiny-instance gap {100 * gap:.1f}% <= 15%")


def test_criterion_5_bandit_correctness():
    rng = np.random.default_rng(2024)

    # Top-k selection vs exhaustive enumeration, 1000 random cases.
    enum_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        theta = rng.normal(size=m)
        k = int(rng.integers(0, min(4, m) + 1))
        arm = SuperArm(select_super_arm(theta, range(m), k))
        best = max((sum(theta[list(c)])
                    for c in itertools.combinations(range(m), k)),
                   default=0.0)
        if abs(arm.value(theta) - best) > 1e-12:
            enum_ok = False
            break

    # update_day vs least squares over the stacked one-hot observations:
    # one row e_i per played instant i with its reward as target, plus one
    # prior pseudo-observation (e_i, REWARD_PRIOR_MEAN) per instant.
    m = 8
    state = BanditState.initial(m, 0.5, REWARD_PRIOR_MEAN)
    rows, targets = [np.eye(m)], [np.full(m, REWARD_PRIOR_MEAN)]
    lstsq_ok = True
    for _ in range(60):
        mask = (rng.random(m) < 0.4).astype(float)
        rew = mask * rng.normal(size=m)
        state = update_day(state, mask, rew)
        played = np.flatnonzero(mask)
        rows.append(np.eye(m)[played])
        targets.append(rew[played])
        oracle = np.linalg.lstsq(np.vstack(rows), np.concatenate(targets),
                                 rcond=None)[0]
        if np.max(np.abs(state.estimate - oracle)) > 1e-9:
            lstsq_ok = False
            break

    # Positive definite posterior (precision >= 1) across 10^4 updates.
    state = BanditState.initial(6, 0.5, REWARD_PRIOR_MEAN)
    for _ in range(10_000):
        mask = (rng.random(6) < 0.5).astype(float)
        state = update_day(state, mask, mask * rng.normal(size=6))
    prec_min = float(state.precision.min())
    spd_ok = prec_min >= 1.0

    ok = enum_ok and lstsq_ok and spd_ok
    report(5, "bandit correctness", ok,
           f"enumeration {enum_ok}, lstsq-within-1e-9 {lstsq_ok}, "
           f"min precision after 1e4 updates {prec_min:.3f}")


def test_criterion_6_regret_sanity():
    # Single EV, stationary tariff, unconstrained network, zero PV; small
    # exploration scale so play settles and R(D)/D decays monotonically.
    cfg = ScenarioConfig(
        feeder=FeederSpec(sub_districts=1, buses_per_feeder=2,
                          households_per_bus=1),
        fleet_size=1,
        ev=EvParams(arrival_mean_hour=16.0, arrival_std_hour=0.0,
                    depart_mean_hour=8.0, depart_std_hour=0.0),
        m=24, household_load_w=0.0,
        irradiance_profile=np.zeros(24))
    sc = generate_scenario(cfg, 200, 6)
    profile = sc.fleet[0]
    selections = []   # per day: (played super-arm, estimate before update)

    class Recorded(AmasStrategy):
        def session_end(self, fleet, rows):
            for idx in rows:
                selections.append(
                    (SuperArm(tuple(np.flatnonzero(fleet.played[idx]))),
                     self.bandit.estimate[idx]))
            super().session_end(fleet, rows)

    Simulation(sc, Recorded(alpha=0.02)).run()

    true_theta = np.array(
        [1.0 - sc.price_profile[(profile.t_arrive + l) % sc.m]
         for l in range(profile.window_length)])
    ks = [len(arm) for arm, _ in selections]
    cum = pseudo_regret(true_theta, selections, ks)["true"]
    ratio = cum / np.arange(1, len(cum) + 1)
    diffs = np.diff(ratio[10:])
    ok = bool(np.all(diffs <= 1e-12)) and ratio[-1] < ratio[10]
    report(6, "regret sanity", ok,
           f"R(D)/D over 200 days: {ratio[10]:.4f} at day 11 -> "
           f"{ratio[-1]:.4f} at day 200, monotone after day 10: "
           f"{bool(np.all(diffs <= 1e-12))}")


def test_criterion_7_power_flow_correctness(small_run):
    net = NetworkTopology(
        buses=[Bus("slack"), Bus("load")],
        lines=[Line("l0", "slack", "load", 0.1, 0.0, 100.0)],
        slack_bus_id="slack", v_base=230.0)
    sol = solve_power_flow(net, by_bus(net, {"load": 2300.0}))
    v2 = (230.0 + np.sqrt(230.0**2 - 4 * 0.1 * 2300.0)) / 2.0
    two_bus_err = abs(sol.bus_voltages[1] - v2 / 230.0)

    scenario, _, records = small_run
    worst = 0.0
    non_converged = 0
    for r in records:
        if not r.converged:
            non_converged += 1
            continue
        sol_t = solve_power_flow(scenario.topology, r.injections)
        worst = max(worst,
                    power_mismatch(scenario.topology, sol_t, r.injections))
    ok = two_bus_err < 1e-6 and worst < 1e-6 and non_converged == 0
    report(7, "power-flow correctness", ok,
           f"two-bus error {two_bus_err:.2e} pu, worst residual over "
           f"{len(records)} instants {worst:.2e}")


def test_criterion_8_required_instants_examples():
    def need(profile, phi, k_p):
        ahead = np.cumsum(phi[::-1])[::-1]     # phi summed over [l, 60)
        return int(required_instants(Fleet([profile], 60), 15.0, ahead[0],
                                     k_p, 0)[0])

    p = EvProfile(ev_id="e", bus_id="b", e_bat=52.0, p_max=7.0,
                  eta_chrg=0.95, soc_start=0.5, soc_target=0.8,
                  t_arrive=0, t_depart=60)
    a = need(p, np.zeros(60), 0)
    flat = EvProfile(ev_id="e", bus_id="b", e_bat=52.0, p_max=7.0,
                     eta_chrg=0.95, soc_start=0.8, soc_target=0.8,
                     t_arrive=0, t_depart=60)
    b = need(flat, np.zeros(60), 0)
    phi = np.zeros(60)
    phi[0] = 13_300.0  # 13.3 kW-instants of estimated PV
    c = need(p, phi, 3)
    ok = (a, b, c) == (10, 0, 5)
    report(8, "charging-need rule examples", ok, f"got {(a, b, c)}, want (10, 0, 5)")


def test_criterion_9_scalability_smoke():
    import time
    cfg = ScenarioConfig(
        feeder=FeederSpec(sub_districts=10, buses_per_feeder=11,
                          households_per_bus=5),
        fleet_size=550, m=96)
    sc = generate_scenario(cfg, 40, 1)
    t0 = time.monotonic()
    res = Simulation(sc, AmasStrategy()).run()
    elapsed = time.monotonic() - t0
    cur = int(res.violations_current[30:].sum())
    volt = int(res.violations_voltage[30:].sum())
    ok = elapsed < 1800.0 and cur == 0 and volt == 0
    report(9, "scalability smoke", ok,
           f"550 EVs x 40 days in {elapsed:.0f}s < 1800s, "
           f"post-convergence violations {cur}+{volt}")


def test_criterion_10_byte_determinism(tmp_path):
    body = (
        "scenario:\n"
        "  topology:\n"
        "    sub_districts: 1\n"
        "    buses_per_feeder: 4\n"
        "    households_per_bus: 2\n"
        "  fleet_size: 5\n"
        "days: 3\n"
        "seed: 11\n"
    )
    cfg = tmp_path / "run.yaml"
    cfg.write_text(body, encoding="utf-8")
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["run", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 0
        blob = {}
        for f in sorted(out.iterdir()):
            if f.name == "manifest.json":
                # The manifest echoes the per-run output dir; drop it.
                payload = json.loads(f.read_text())
                payload["overrides"].pop("output_dir", None)
                payload["config"].pop("output_dir", None)
                blob[f.name] = json.dumps(payload, sort_keys=True)
            else:
                blob[f.name] = f.read_bytes()
        digests.append(blob)
    same = digests[0] == digests[1]
    report(10, "byte determinism", same,
           f"{len(digests[0])} output files compared byte-for-byte")
