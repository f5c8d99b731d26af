"""Golden output fixture: sha256 of every file a small fixed run writes.

The run has line congestion and bus under-voltage (226 line and 89 bus
requests, 125 current and 41 voltage violation instants over 4 days), so
it exercises the charging decision, request flooding and cooperative
curtailment. A refactor of those rules must leave every digest unchanged.

The run works in a temporary directory with relative config and output
paths, so `manifest.json` is hashed as written, like the other files.
The digests depend on this numpy build: floating-point results of the
power flow may differ by an ulp on another build, which changes the bytes
of the outputs. The learners use no LAPACK call, only elementwise vector
arithmetic.
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
        "07f27ee343c925e7d49afb4c969b64eb0dbb4ac4b256c70d97d72236c688446e",
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


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(CONFIG, encoding="utf-8")
    assert main(["run", "--config", "run.yaml", "--output-dir", "out"]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted((tmp_path / "out").iterdir())}
    assert got == DIGESTS
