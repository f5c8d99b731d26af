"""Golden output fixtures: sha256 of every file a small fixed run writes.

The run has line congestion and bus under-voltage (226 line and 89 bus
requests, 125 current and 41 voltage violation instants over 4 days), so
it exercises the charging decision, request flooding and cooperative
curtailment. A refactor of those rules must leave every digest unchanged.

Two more runs pin the strategies that do not learn, the uncontrolled
baseline and the replay of greedy oracle schedules: 20 EVs on two
sub-districts over 2 days, the uncontrolled fleet with 24 current and 18
voltage violation instants. Their charging decisions run through the same
per-instant kernel as the learner's.

One more run repeats the first config with `bandit: {alpha: 0}`: every
sampled theta is the prior mean, so every instant ties and the top-k
choice rests on the tie rule alone (toward the lowest instant).

The first config floods only +1 requests. A daytime run with PV pushing
buses over their band floods +1 and -1 requests at the same instant at 22
instants, 3 of them with EVs charging, so it pins a flood of two priority
levels.

Each run works in a temporary directory with relative config and output
paths, so `manifest.json` is hashed as written, like the other files.
The digests depend on this numpy build: floating-point results of the
power flow may differ by an ulp on another build, which changes the bytes
of the outputs. The learners use no LAPACK call, only elementwise vector
arithmetic.
"""
import hashlib
import os
import subprocess
import sys
from unittest import mock

import pytest

import gridcharge
from gridcharge import cli, engine
from gridcharge.agents import request_priority
from gridcharge.cli import main
from gridcharge.config import build_scenario, parse_config
from gridcharge.engine import Simulation
from gridcharge.gridnet import solve_power_flow
from gridcharge.strategies import AmasStrategy
from helpers import record_instants

CONFIG = """\
scenario:
  topology:
    sub_districts: 1
    buses_per_feeder: 6
    households_per_bus: 3
    line_rating: 150.0
    line_resistance: 0.01
    v_min: 0.97
  fleet_size: 18
  household_load_w: 600.0
days: 4
seed: 2
cooperation_fraction: 0.3
"""

DIGESTS = {
    "checkpoint.json":
        "e329b8880e602c04026ec34268e900d1fa365d2c4280b86976d0eca4121b4f1e",
    "manifest.json":
        "c677a937bc345d7bd9512e77bb7aca37d7445dc89fbc052b608a744243353e8e",
    "metrics_daily.csv":
        "b2c8ac87cea42cd88a1eb8b4920e3480dc1c7867c2e78b25837ce988f06c9fe0",
    "metrics_per_ev.csv":
        "71311d0a82e12423e8ffe60226d613119a8c82f50ec9b7f6144e9d3164ced632",
    "plot_cost_bars.csv":
        "f2db38d9b50da97feed6ec50e4a23e27afe0622da9103be8a03f0dc806408163",
    "plot_reward_vs_day.csv":
        "0d8a4217c7cb0b17bcea7bf65907dfb0dd982b9782f0034f7c1fdc4aad60cc01",
    "summary.json":
        "1139a8ca97088d4b4804d78576b590838ff922fe124be8355fd9f637375f6aeb",
}

# The first config with every sampled theta tied, computed before the
# per-session rank table replaced the per-instant top-k count.
TIED_CONFIG = CONFIG + "bandit: {alpha: 0}\n"

TIED_DIGESTS = {
    "checkpoint.json":
        "60ab177dad58ca745a1f07cf0bd82d404b963575611b019a227e2508bfa3169f",
    "manifest.json":
        "d0a3997551d6a383e8c395a68b0902db097e0d1fb6385ba5a81139fb08c46fe2",
    "metrics_daily.csv":
        "d9b6ed2355eacefb42dc8034e23eb88d4e59893f8ca6ff1eb85038cf679f9846",
    "metrics_per_ev.csv":
        "d1607fd9e673c4a13365661d7b387e7c29a1d42efc275bf3183ede5dbb0d6a2e",
    "plot_cost_bars.csv":
        "70e6139a76eac2a7b8d36b6cdb276be4f07a4120fde555f3903ba1225b13a93c",
    "plot_reward_vs_day.csv":
        "e439abf44995155579c27f4c572805170210a9b87ec474f31cbcc3be40c7032e",
    "summary.json":
        "19534fb826801511376fe57da0120e26c82e207fe1528bd27536a72b3239c5c4",
}


# Daytime sessions under 40 m^2 of PV per site, computed before the flood
# became one breadth-first pass per priority level.
TWO_LEVEL_CONFIG = """\
scenario:
  topology:
    sub_districts: 1
    buses_per_feeder: 6
    households_per_bus: 3
    line_rating: 150.0
    line_resistance: 0.01
    v_max: 1.02
  fleet_size: 18
  pv: {area_m2: 40.0}
  ev: {arrival_mean_hour: 9.0, depart_mean_hour: 17.0}
days: 3
seed: 2
cooperation_fraction: 0.3
"""

TWO_LEVEL_DIGESTS = {
    "checkpoint.json":
        "ffe94ef4a86fdbea88dd05df0f390e1ead1e8ba5a5f22e1b2e61f3a5b91bd8e2",
    "manifest.json":
        "3526ad131398503f2403a0c7fd12952046660c49542f77a7f2a6c48c9ec5874a",
    "metrics_daily.csv":
        "8cf92d48cc1224f2cf8e5309808b46b7a817d51e4600723995c3a499bd4db8f4",
    "metrics_per_ev.csv":
        "fdeb30dbb193e7d788cdfafab5a47bad67c7c0cba0fd8b386e1d5eb2838c1a2b",
    "plot_cost_bars.csv":
        "b467b99a8693de317929854e52ba87ccad70adb5b228f283897fdb3eb830f1ef",
    "plot_reward_vs_day.csv":
        "97e2c62d7107db7ee9401e5d3b2301d0d23be878b9752e311e24f19d855ba939",
    "summary.json":
        "f4a90a799ec08848e74dec6e7e4f8692e9b369bc6cbd4101405ed8b991be8522",
}


# The first config on two branches, computed before requests named fleet
# rows instead of EV ids.
BRANCHES_CONFIG = """\
scenario:
  topology:
    sub_districts: 2
    buses_per_feeder: 6
    households_per_bus: 3
    line_rating: 150.0
    line_resistance: 0.01
    v_min: 0.97
  fleet_size: 24
  household_load_w: 600.0
days: 3
seed: 2
cooperation_fraction: 0.3
"""

BRANCHES_DIGESTS = {
    "checkpoint.json":
        "fd440d38d3e40d79faa9b7cf5b1badf6fd220741cbcd9ea422304bac4f91407f",
    "manifest.json":
        "43a163bc8eacd7b7726ec40a2ca074f67a404449385b1fecefa676ccd00f050d",
    "metrics_daily.csv":
        "470ffe08e579f8c56758e044ef0ca27a1cb4dac5822eaa3d6dead846c8320c07",
    "metrics_per_ev.csv":
        "bff4d0ad6bbd881979baa01b68e9174bc8e0f5c5f38dedc96608d1a62f8c5b96",
    "plot_cost_bars.csv":
        "8025c9a1d867f3cf6509508c3b8484b75ba98ec7f44466618921ec32296bb471",
    "plot_reward_vs_day.csv":
        "9bfdc18492be5dd345d396aec970712e54093e15f7dfd496abfbe2e8df539e38",
    "summary.json":
        "c2d01eabb19fe53036322de306e22cf4cf9d618ff4324fd7cdbe29ca77e15d67",
}


BASELINE_CONFIG = """\
scenario:
  topology:
    sub_districts: 2
    buses_per_feeder: 5
    households_per_bus: 2
    line_rating: 120.0
    line_resistance: 0.01
    v_min: 0.97
  fleet_size: 20
  household_load_w: 600.0
strategy: {strategy}
oracle_mode: greedy
days: 2
seed: 3
cooperation_fraction: 0.3
"""

BASELINE_DIGESTS = {
    "oracle": {
        "manifest.json":
            "4d22913643cfe566aa283e15442663083aba7c34ecbd6f66ae956b44b2a23e07",
        "metrics_daily.csv":
            "0672d7ccca240fcec09ac5994d1773f66a85f0238b14042a2cfbfa29ff322ab6",
        "metrics_per_ev.csv":
            "01b76ce051d595f3d667a1a23d7c7c879dcaea95477ec300f471500ac6fef14d",
        "plot_cost_bars.csv":
            "997cf257438cbe04c46b150cd2931f6d65f5b855d0989a009ae8ef9cbee108b2",
        "plot_reward_vs_day.csv":
            "20190a1d788e945a34b8143b08bbe162e3a42a4044b69d6e8dd2b24fb4dded86",
        "summary.json":
            "96fd78e83b4ee3faa8631bdc4fb49da257a044a9df44a48834af4f801b88b3af",
    },
    "uncontrolled": {
        "manifest.json":
            "44d64f37f9b7654e263fb27f4bfb40fcaf9d4ec5f4b1e33e22ae0afa28739a2f",
        "metrics_daily.csv":
            "acdbfca9a38bbf9a021cf67e548142254c3848816077b68fc45b1a454518a6c0",
        "metrics_per_ev.csv":
            "42fcb23e6e119f6261a03416457dd8bf8d22442d399335b4c5329b657e89dd0c",
        "plot_cost_bars.csv":
            "2a1026a25c8c4a2b1a9cdff3b7fde5c132e7f2c96fc3aa1a5b89d18cd48a09ee",
        "plot_reward_vs_day.csv":
            "01a92158984a1e14f3baaad6fdf82b7f37b9c030003ca152cb78132751410546",
        "summary.json":
            "bc58e580ac1cece65f5faa8a4aa286e1c86f95b935c2a81a2c4b4c8b0106cf37",
    },
}


RUN = ["run", "--config", "run.yaml", "--output-dir", "out"]


def digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def run_digests(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(config, encoding="utf-8")
    assert main(RUN) == 0
    return digests(tmp_path / "out")


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    assert run_digests(tmp_path, monkeypatch, CONFIG) == DIGESTS


def test_tied_theta_outputs_match_golden_digests(tmp_path, monkeypatch):
    assert run_digests(tmp_path, monkeypatch, TIED_CONFIG) == TIED_DIGESTS


def test_two_level_outputs_match_golden_digests(tmp_path, monkeypatch):
    assert (run_digests(tmp_path, monkeypatch, TWO_LEVEL_CONFIG)
            == TWO_LEVEL_DIGESTS)


def test_branches_outputs_match_golden_digests(tmp_path, monkeypatch):
    assert (run_digests(tmp_path, monkeypatch, BRANCHES_CONFIG)
            == BRANCHES_DIGESTS)


def recorded_instants(tmp_path, config):
    """The `record_instants` records of a learner run of `config`."""
    path = tmp_path / "run.yaml"
    path.write_text(config, encoding="utf-8")
    rc = parse_config(str(path))
    sim = Simulation(build_scenario(rc), AmasStrategy(alpha=rc.alpha,
                                                      beta=rc.beta),
                     cooperation_fraction=rc.cooperation_fraction)
    return record_instants(sim)[1]


def test_golden_run_flood_rounds(tmp_path):
    records = recorded_instants(tmp_path, CONFIG)
    assert sum(r.flood_rounds for r in records) == 1106


def test_two_level_run_floods_two_levels(tmp_path):
    records = recorded_instants(tmp_path, TWO_LEVEL_CONFIG)
    both = [r for r in records
            if len({request_priority(q.criticality) for q in r.requests}) == 2]
    assert len(both) == 22
    assert sum(bool(r.ev_grid_kw) for r in both) == 3


@pytest.mark.parametrize("strategy", sorted(BASELINE_DIGESTS))
def test_baseline_outputs_match_golden_digests(tmp_path, monkeypatch,
                                               strategy):
    config = BASELINE_CONFIG.format(strategy=strategy)
    assert (run_digests(tmp_path, monkeypatch, config)
            == BASELINE_DIGESTS[strategy])


def test_outputs_independent_of_hash_seed(tmp_path):
    # String hashing is salted per process, so iteration over sets and
    # dicts keyed by ids may differ between runs; none of it may reach the
    # outputs.
    src = os.path.dirname(os.path.dirname(gridcharge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    seen = []
    for hash_seed in ("0", "1"):
        work = tmp_path / hash_seed
        work.mkdir()
        (work / "run.yaml").write_text(CONFIG, encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-m", "gridcharge.cli", *RUN],
                              cwd=work, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        seen.append(digests(work / "out"))
    assert seen[0] == seen[1] == DIGESTS


EVERY_CONFIG = {
    "golden": CONFIG, "tied": TIED_CONFIG, "two-level": TWO_LEVEL_CONFIG,
    "branches": BRANCHES_CONFIG,
    **{strategy: BASELINE_CONFIG.format(strategy=strategy)
       for strategy in BASELINE_DIGESTS},
}


def recorded_run(tmp_path, monkeypatch, config):
    """Run `config` as `run_digests` does, with its simulation's instants
    recorded (`record_instants`) and its power flows counted. Returns the
    output digests, the records and the injection bytes of every power
    flow the simulation solved, in order."""
    records, solved = [], []

    class Recorded(Simulation):
        def run(self):
            self.run = super().run      # what `record_instants` runs
            result, records[:] = record_instants(self)
            return result

    def solve(net, inj):
        solved.append(inj.tobytes())
        return solve_power_flow(net, inj)

    tmp_path.mkdir()
    with mock.patch.object(cli, "Simulation", Recorded), \
            mock.patch.object(engine, "solve_power_flow", solve):
        return run_digests(tmp_path, monkeypatch, config), records, solved


def state_bytes(state):
    converged, line_crit, bus_crit, line_any, bus_any = state
    return converged, line_crit.tobytes(), bus_crit.tobytes(), line_any, bus_any


@pytest.mark.parametrize("name", sorted(EVERY_CONFIG))
def test_runs_as_with_every_vector_built(tmp_path, monkeypatch, name):
    # An instant that its power totals clear builds no injection vector.
    # With that bound off, every vector is built and judged: the runs
    # take the same grid state at every instant, solve the same power
    # flows and write the same bytes.
    config = EVERY_CONFIG[name]
    digests_on, records_on, solved_on = recorded_run(
        tmp_path / "on", monkeypatch, config)
    with mock.patch.object(engine, "bound_below_limit",
                           lambda *args: False):
        digests_off, records_off, solved_off = recorded_run(
            tmp_path / "off", monkeypatch, config)
    assert digests_on == digests_off
    assert solved_on == solved_off
    assert any(r.cleared for r in records_on)
    assert not any(r.cleared for r in records_off)
    assert len(records_on) == len(records_off)
    for on, off in zip(records_on, records_off):
        assert on.injections.tobytes() == off.injections.tobytes()
        assert state_bytes(on.state) == state_bytes(off.state)
        assert [(q.criticality, q.origin_agent, q.target_rows.tolist())
                for q in on.requests] == [
            (q.criticality, q.origin_agent, q.target_rows.tolist())
            for q in off.requests]
        assert on.flood_rounds == off.flood_rounds
        assert on.ev_grid_kw == off.ev_grid_kw
