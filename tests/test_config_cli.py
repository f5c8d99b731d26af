"""Config parsing, CLI subcommands, output files, checkpoint round-trip."""
import json
import os

import numpy as np
import pytest

from gridcharge.cli import execute_run, main
from gridcharge.config import (SCHEMA, ConfigError, build_scenario,
                               parse_config)
from gridcharge.strategies import CHECKPOINT_FORMAT, AmasStrategy, _pack

SMALL = """\
scenario:
  topology:
    sub_districts: 1
    buses_per_feeder: 3
    households_per_bus: 2
  fleet_size: 3
days: 2
seed: 7
output_dir: "{out}"
"""


def write_config(tmp_path, body, name="run.yaml"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


@pytest.fixture
def small_cfg(tmp_path):
    out = tmp_path / "out"
    return write_config(tmp_path, SMALL.format(out=out)), str(out)


def trunk(net):
    return next(line for line in net.lines if line.id == "l_trunk")


# Per `scenario.topology` key, a value and how to read it back from the
# built feeder: the chains hang off the trunk, the last bus and line end
# the last chain.
TOPOLOGY_READS = {
    "sub_districts": (3, lambda net: sum(line.from_bus == "trunk"
                                         for line in net.lines)),
    "buses_per_feeder": (4, lambda net: sum(bus.id.startswith("d0b")
                                            for bus in net.buses)),
    "households_per_bus": (3, lambda net: len(net.buses[-1].devices)),
    "line_resistance": (0.004, lambda net: net.lines[-1].resistance),
    "line_reactance": (0.003, lambda net: net.lines[-1].reactance),
    "line_rating": (700.0, lambda net: net.lines[-1].i_rated),
    "trunk_resistance": (0.0009, lambda net: trunk(net).resistance),
    "trunk_reactance": (0.0007, lambda net: trunk(net).reactance),
    "trunk_rating": (1900.0, lambda net: trunk(net).i_rated),
    "v_min": (0.9, lambda net: net.buses[-1].v_min),
    "v_max": (1.1, lambda net: net.buses[-1].v_max),
    "v_base": (400.0, lambda net: net.v_base),
}


class TestParseConfig:
    def test_defaults_filled_and_echoed(self, tmp_path):
        path = write_config(tmp_path, "scenario:\n  fleet_size: 2\n")
        rc = parse_config(path)
        assert rc.strategy == "amas"
        assert rc.days == 60
        assert rc.alpha == 0.5
        assert rc.raw["scenario"]["instants_per_day"] == 96
        assert any(d.startswith("strategy=") for d in rc.defaults_applied)
        assert any(d.startswith("bandit.alpha=") for d in rc.defaults_applied)

    def test_unknown_key_named(self, tmp_path):
        for body, key in (("scenario:\n  flet_size: 2\n", "scenario.flet_size"),
                          ("bandit:\n  update_rule: rank_one\n",
                           "bandit.update_rule"),
                          ("bandit:\n  pv_update_rule: per_arm\n",
                           "bandit.pv_update_rule")):
            path = write_config(tmp_path, body)
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(path)

    def test_type_mismatch_named(self, tmp_path):
        path = write_config(tmp_path, "days: soon\n")
        with pytest.raises(ConfigError, match="days"):
            parse_config(path)

    def test_unknown_strategy(self, tmp_path):
        path = write_config(tmp_path, "strategy: psychic\n")
        with pytest.raises(ConfigError, match="strategy"):
            parse_config(path)

    def test_exhaustive_oracle_fleet_limit(self, tmp_path):
        body = ("strategy: oracle\noracle_mode: exhaustive\n"
                "scenario:\n  fleet_size: 500\n"
                "  topology:\n    sub_districts: 10\n")
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match="12 EVs"):
            parse_config(path)

    def test_missing_profile_file(self, tmp_path):
        path = write_config(tmp_path, "scenario:\n  price_csv: nope.csv\n")
        with pytest.raises(ConfigError, match="nope.csv"):
            parse_config(path)

    def test_profile_path_relative_to_config(self, tmp_path):
        rows = "\n".join(f"{i},0.2" for i in range(96))
        (tmp_path / "price.csv").write_text(f"instant,value\n{rows}\n")
        path = write_config(tmp_path, "scenario:\n  price_csv: price.csv\n")
        rc = parse_config(path)
        sc = build_scenario(rc)
        assert np.allclose(sc.price_profile, 1.0)  # normalized flat tariff

    @pytest.mark.parametrize("key", list(SCHEMA["scenario"]["topology"]))
    def test_topology_key_reaches_the_feeder(self, tmp_path, key):
        # Two sub-districts, so that the trunk line exists; each key is set
        # to a valid value other than its default and read back from the
        # buses and lines built.
        value, read = TOPOLOGY_READS[key]
        assert value != SCHEMA["scenario"]["topology"][key][1]
        body = {"scenario": {"topology": {"sub_districts": 2, key: value},
                             "fleet_size": 1},
                "days": 1}
        rc = parse_config(write_config(tmp_path, json.dumps(body)))
        assert read(build_scenario(rc).topology) == value

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "missing.yaml"))

    def test_overrides_echoed(self, small_cfg):
        path, _ = small_cfg
        rc = parse_config(path, {"seed": 9, "days": 1})
        assert rc.seed == 9 and rc.days == 1
        assert rc.overrides == {"seed": 9, "days": 1}

    def test_bad_update_rule(self, tmp_path, capsys):
        # Each learner has one update rule; the keys that chose one are gone.
        for key in ("update_rule", "pv_update_rule"):
            path = write_config(tmp_path, f"bandit:\n  {key}: per_arm\n")
            assert main(["validate", "--config", path]) == 1
            assert f"unknown key 'bandit.{key}'" in capsys.readouterr().err


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestRunCommand:
    def test_run_writes_artifacts(self, small_cfg, capsys):
        path, out = small_cfg
        assert main(["run", "--config", path]) == 0
        for name in ("manifest.json", "metrics_daily.csv",
                     "metrics_per_ev.csv", "plot_reward_vs_day.csv",
                     "plot_cost_bars.csv", "summary.json", "checkpoint.json"):
            assert os.path.exists(os.path.join(out, name)), name
        daily = read(os.path.join(out, "metrics_daily.csv")).splitlines()
        assert daily[0] == ("day,mean_reward,total_cost,current_violations,"
                            "voltage_violations,fairness")
        assert len(daily) == 3  # header + 2 days
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["days"] == 2
        assert summary["fairness_last_half"] is not None
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["scenario"]["fleet_size"] == 3
        assert manifest["defaults_applied"]

    def test_uncontrolled_omits_fairness(self, small_cfg):
        path, out = small_cfg
        assert main(["run", "--config", path,
                     "--strategy", "uncontrolled"]) == 0
        daily = read(os.path.join(out, "metrics_daily.csv")).splitlines()
        assert "fairness" not in daily[0]
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["fairness_last_half"] is None
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))

    def test_days_zero_headers_only(self, small_cfg):
        path, out = small_cfg
        assert main(["run", "--config", path, "--days", "0"]) == 0
        daily = read(os.path.join(out, "metrics_daily.csv")).splitlines()
        assert len(daily) == 1

    def test_env_var_output_dir(self, small_cfg, tmp_path, monkeypatch):
        path, _ = small_cfg
        env_out = tmp_path / "envout"
        monkeypatch.setenv("GRIDCHARGE_OUTPUT_DIR", str(env_out))
        assert main(["run", "--config", path]) == 0
        assert os.path.exists(env_out / "summary.json")
        manifest = json.loads(read(env_out / "manifest.json"))
        assert manifest["overrides"]["output_dir"] == str(env_out)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_v_base_runs_to_finite_outputs(self, tmp_path):
        # Every sweep diverges at 1e-300 volt; its stopping test may not
        # overflow on the way.
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL.format(out=out).replace(
            "households_per_bus: 2\n",
            "households_per_bus: 2\n    v_base: 1.0e-300\n"))
        assert main(["run", "--config", path]) == 0
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["voltage_violations"] > 0
        assert all(np.isfinite(v) for v in summary.values()
                   if isinstance(v, float))

    def test_rejected_override_names_key(self, small_cfg, capsys):
        path, _ = small_cfg
        assert main(["run", "--config", path, "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_error_exit_nonzero(self, tmp_path, capsys):
        path = write_config(tmp_path, "strategy: psychic\n")
        assert main(["run", "--config", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_metrics_csv_round_trips(self, small_cfg):
        path, out = small_cfg
        main(["run", "--config", path])
        daily = read(os.path.join(out, "metrics_daily.csv")).splitlines()
        header = daily[0].split(",")
        for row in daily[1:]:
            cells = row.split(",")
            assert len(cells) == len(header)
            int(cells[0])
            for c in cells[1:]:
                if c:
                    float(c)


class TestValidateCommand:
    def test_valid(self, small_cfg, capsys):
        path, _ = small_cfg
        assert main(["validate", "--config", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario:\n  fleet_size: 10000\n")
        assert main(["validate", "--config", path]) == 1

    @pytest.mark.parametrize("body, key", [
        ("bandit:\n  alpha: .nan\n", "bandit.alpha"),
        ("scenario:\n  ev:\n    p_max_kw: .nan\n", "scenario.ev.p_max_kw"),
        ("scenario:\n  household_load_w: -500\n",
         "scenario.household_load_w"),
        ("scenario:\n  pv:\n    area_m2: 1" + "0" * 400 + "\n",
         "scenario.pv.area_m2"),   # an int too large for a float
        ("bandit:\n  alpha: -0.5\n", "bandit.alpha"),
        ("bandit:\n  beta: -1.0\n", "bandit.beta"),
        ("scenario:\n  pv:\n    area_m2: -20.0\n", "scenario.pv.area_m2"),
        ("scenario:\n  pv:\n    efficiency: 1.5\n",
         "scenario.pv.efficiency"),
        ("scenario:\n  ev:\n    e_bat_kwh: 0.0\n", "scenario.ev.e_bat_kwh"),
        ("scenario:\n  ev:\n    p_max_kw: -7.0\n", "scenario.ev.p_max_kw"),
        ("scenario:\n  ev:\n    eta_chrg: 1.2\n", "scenario.ev.eta_chrg"),
        ("scenario:\n  ev:\n    soc_start: 0.9\n", "scenario.ev.soc_start"),
        ("scenario:\n  topology:\n    v_base: 0\n",
         "scenario.topology.v_base"),
        ("scenario:\n  topology:\n    v_base: -5\n",
         "scenario.topology.v_base"),
        ("scenario:\n  topology:\n    line_rating: 0\n",
         "scenario.topology.line_rating"),
        ("scenario:\n  topology:\n    trunk_rating: 0\n",
         "scenario.topology.trunk_rating"),
        ("scenario:\n  topology:\n    v_min: 1.2\n",
         "scenario.topology.v_min"),
        ("scenario:\n  topology:\n    v_min: 0\n",
         "scenario.topology.v_min"),
        ("scenario:\n  topology:\n    sub_districts: 0\n",
         "scenario.topology.sub_districts"),
        ("scenario:\n  topology:\n    buses_per_feeder: 0\n",
         "scenario.topology.buses_per_feeder"),
        ("scenario:\n  topology:\n    households_per_bus: 0\n",
         "scenario.topology.households_per_bus"),
        ("scenario:\n  fleet_size: -1\n", "scenario.fleet_size"),
        ("scenario:\n  fleet_size: 60\n", "scenario.fleet_size"),
        ("scenario:\n  ev:\n    arrival_std_hour: -1.0\n",
         "scenario.ev.arrival_std_hour"),
        ("scenario:\n  ev:\n    depart_std_hour: -0.5\n",
         "scenario.ev.depart_std_hour"),
        ("scenario:\n  instants_per_day: 0\n", "scenario.instants_per_day"),
        ("scenario:\n  topology:\n    line_resistance: 0\n"
         "    line_reactance: 0\n",
         "scenario.topology.line_resistance, scenario.topology.line_reactance"),
        ("scenario:\n  topology:\n    sub_districts: 2\n"
         "    trunk_resistance: 0\n    trunk_reactance: 0\n",
         "scenario.topology.trunk_resistance, "
         "scenario.topology.trunk_reactance"),
        ("scenario:\n  topology:\n    line_resistance: -0.001\n",
         "scenario.topology.line_resistance"),
        ("scenario:\n  topology:\n    sub_districts: 2\n"
         "    trunk_resistance: -0.001\n",
         "scenario.topology.trunk_resistance"),
        ("seed: -1\n", "seed"),
        ("days: -1\n", "days"),
        ("cooperation_fraction: 0\n", "cooperation_fraction"),
        ("scenario:\n  price_max: 0\n", "scenario.price_max"),
        ("scenario:\n  ev:\n    soc_target: 1.5\n",
         "scenario.ev.soc_target"),
        ("oracle_mode: bogus\n", "oracle_mode"),
    ], ids=["alpha-nan", "p_max-nan", "household-load-negative",
            "pv-area-overflow", "alpha-negative", "beta-negative",
            "pv-area-negative", "pv-efficiency-above-one", "e_bat-zero",
            "p_max-negative", "eta-above-one", "soc-start-above-target",
            "v_base-zero", "v_base-negative", "line_rating-zero",
            "trunk_rating-zero", "v_min-above-v_max", "v_min-zero",
            "sub_districts-zero", "buses_per_feeder-zero",
            "households_per_bus-zero", "fleet_size-negative",
            "fleet_size-above-sites", "arrival_std-negative",
            "depart_std-negative",
            "instants_per_day-zero", "line-impedance-zero",
            "trunk-impedance-zero", "line-resistance-negative",
            "trunk-resistance-negative", "seed-negative", "days-negative",
            "cooperation-zero", "price_max-zero", "soc-target-above-one",
            "oracle_mode-unknown"])
    def test_rejected_value_names_key(self, tmp_path, capsys, body, key):
        path = write_config(tmp_path, body)
        assert main(["validate", "--config", path]) == 1
        assert key in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_two_strategies(self, tmp_path):
        out = tmp_path / "cmp"
        amas = write_config(tmp_path, SMALL.format(out=out), "a.yaml")
        unc = write_config(
            tmp_path, SMALL.format(out=out) + "strategy: uncontrolled\n",
            "u.yaml")
        assert main(["compare", "--configs", amas, unc,
                     "--output-dir", str(out)]) == 0
        rows = json.loads(read(out / "comparison.json"))["strategies"]
        assert [r["strategy"] for r in rows] == ["amas", "uncontrolled"]
        csv_lines = read(out / "comparison.csv").splitlines()
        assert len(csv_lines) == 3

    def test_mismatched_scenarios_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, SMALL.format(out=tmp_path / "o"), "a.yaml")
        b = write_config(tmp_path,
                         SMALL.format(out=tmp_path / "o").replace(
                             "fleet_size: 3", "fleet_size: 2"), "b.yaml")
        assert main(["compare", "--configs", a, b]) == 1
        assert "scenario" in capsys.readouterr().err


class TestCheckpoint:
    @staticmethod
    def restored(out):
        payload = json.loads(read(os.path.join(out, "checkpoint.json")))
        assert payload["format"] == CHECKPOINT_FORMAT
        return AmasStrategy.from_checkpoint(payload)

    def test_round_trip(self, small_cfg):
        path, out = small_cfg
        assert main(["run", "--config", path]) == 0
        restored = self.restored(out)
        _, live, _ = execute_run(parse_config(path))
        assert restored.days_completed == 2
        assert restored.ev_ids == live.ev_ids
        for learner in ("bandit", "pv"):
            got, want = getattr(restored, learner), getattr(live, learner)
            assert got.precision.shape == (3, 96)
            for name in ("precision", "response", "estimate"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), (learner, name)
            assert got.scale == want.scale
        # every EV learned from at least one session
        assert (live.pv.precision > 1.0).any(axis=1).all()

    def test_zero_days_holds_the_priors(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL.format(out=out)
                            .replace("days: 2", "days: 0"))
        assert main(["run", "--config", path]) == 0
        restored = self.restored(out)
        assert restored.days_completed == 0
        assert restored.ev_ids == ["ev0", "ev1", "ev2"]
        for learner, mean in (("bandit", 0.5), ("pv", 0.0)):
            st_ = getattr(restored, learner)
            assert np.array_equal(st_.precision, np.ones((3, 96)))
            assert np.array_equal(st_.response, np.full((3, 96), mean))

    @pytest.mark.parametrize("field", ["bandit.precision", "bandit.response",
                                       "pv.precision", "pv.response"])
    def test_matrix_size_must_match_evs(self, small_cfg, field):
        path, _ = small_cfg
        _, live, _ = execute_run(parse_config(path))
        payload = live.to_checkpoint()
        learner, name = field.split(".")
        payload[learner][name] = _pack(np.ones((2, 96)))   # 3 EVs listed
        with pytest.raises(ValueError, match=f"checkpoint field {field}"):
            AmasStrategy.from_checkpoint(payload)

    def test_format_tag_enforced(self):
        with pytest.raises(ValueError, match="format"):
            AmasStrategy.from_checkpoint({"format": "other/9"})
        # neither the nested lists of /1, the dense PV Gram of /2, the
        # dense reward Gram of /3 nor the per-EV arrays of /4 is read
        for old in ("gridcharge.checkpoint/1", "gridcharge.checkpoint/2",
                    "gridcharge.checkpoint/3", "gridcharge.checkpoint/4"):
            with pytest.raises(ValueError, match=old) as err:
                AmasStrategy.from_checkpoint({"format": old, "evs": {}})
            assert CHECKPOINT_FORMAT in str(err.value)


class TestByteDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = write_config(tmp_path, SMALL.format(out=out), f"{name}.yaml")
            assert main(["run", "--config", cfg]) == 0
            outs.append(out)
        for fname in ("metrics_daily.csv", "metrics_per_ev.csv",
                      "plot_reward_vs_day.csv", "plot_cost_bars.csv",
                      "checkpoint.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname
