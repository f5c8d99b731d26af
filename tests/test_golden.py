"""Golden output fixture: sha256 of every file a small fixed run writes.

The run has line congestion and bus under-voltage (228 line and 95 bus
requests, 126 current and 40 voltage violation instants over 4 days), so
it exercises the charging decision, request flooding and cooperative
curtailment. A refactor of those rules must leave every digest unchanged.

The run works in a temporary directory with relative config and output
paths, so `manifest.json` is hashed as written, like the other files.
The digests depend on this numpy/LAPACK build: floating-point results of
the power flow and the learner's linear algebra may differ by an ulp on
another build, which changes the bytes of the outputs.
"""
import hashlib

from gridcharge.cli import main

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
        "209ea0eceb96807bca13b73ed469936f9bddc9122f77add366aac7693c07ed8a",
    "manifest.json":
        "c677a937bc345d7bd9512e77bb7aca37d7445dc89fbc052b608a744243353e8e",
    "metrics_daily.csv":
        "854860d624c3c6831b0a0a7e4d37e1add35f98da399092db74bae34fcf1de39a",
    "metrics_per_ev.csv":
        "9ef05e5f366c5fe489b5b29bece411471c2548fd142af0e5f8c45e475dcdf6a8",
    "plot_cost_bars.csv":
        "67eb92d185682943442b01ad9de45250145b0ff5279eb0711e3d4756cd1d0cde",
    "plot_reward_vs_day.csv":
        "96d763be13bc2881d0f4ad810e98f2cea4a7ed91b333fc1cf29cfb5f0a066013",
    "summary.json":
        "1f924df334ec18be910a5d914e657d145aa486209ae91bf5e69c796579fc1d3b",
}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(CONFIG, encoding="utf-8")
    assert main(["run", "--config", "run.yaml", "--output-dir", "out"]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted((tmp_path / "out").iterdir())}
    assert got == DIGESTS
