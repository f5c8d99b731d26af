"""Benchmark for gridcharge: one workload, run as real `gridcharge run` commands.

    python3 perfbench/run.py --workload congested --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; it imports gridcharge from the
checkout's `src` and exits with status 2 when that is missing.

Each command runs in a fresh child interpreter (`child.py`), one at a time
(a closed loop with one client), with single-threaded BLAS. The benchmark
writes the workload's YAML config itself; the seed only changes the
config's `seed`. With `--trace 0` it repeats the full command, at least
three times and while another run fits in `--seconds`, and prints the
end-to-end metrics. `setup_s` and `peak_rss_mb` are medians over the
runs. The other timings are built from pieces that do the same work in
every run (oracle planning split at power-flow solves, the simulation at
instants, the output at checkpoint bytes; see `child.py`): each piece is
timed as the best of the runs, and a phase is the sum of its pieces.
Instant percentiles run over the instants at which at least one EV is
plugged in. With `--trace 1` it alternates untraced runs with runs that
put a span around every layer function, at least two of each, and prints
per-layer calls, self times and work counts, plus the tracing overhead.

Every full run is checked: exit status 0, the expected output files with
the expected row counts, a finite `summary.json`, and the same sha256
digest of the output files as every other run of the workload and seed.
In traced runs every count must repeat exactly. A run that fails a check
counts as failed. Outputs go to a scratch directory under `.perfbench_work`
in the checkout, deleted afterwards.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = ".perfbench_work"
DEADLINE_S = 170.0      # every child ends this long after the start at latest
MIN_RUNS = 3            # full children per untraced run, even past --seconds
MIN_TRACED = 2          # traced children per traced run, to compare counts

# Each full command takes about two seconds, so that a run repeats it
# often enough to time every piece in one of the host's quiet stretches.
WORKLOADS = {
    # The reference fleet (55 EVs on one sub-district) with lines rated
    # low enough that they congest: the learner does most of the work,
    # plus request flooding, cooperative curtailment and the checkpoint.
    "congested": {
        "scenario": {"topology": {"sub_districts": 1, "line_rating": 500.0},
                     "fleet_size": 55},
        "strategy": "amas",
        "days": 2,
    },
    # Oracle planning is dominated by power-flow solves; the simulation
    # replays schedules, so the learner, the requests and the checkpoint
    # are bypassed.
    "oracle-greedy": {
        "scenario": {"topology": {"sub_districts": 4}, "fleet_size": 220},
        "strategy": "oracle",
        "oracle_mode": "greedy",
        "days": 2,
    },
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "fleet_instants_per_s": "1/s",
    "instant_ms_p50": "ms",
    "instant_ms_p90": "ms",
    "output_s": "s",
    "peak_rss_mb": "MB",
}

# Layer functions with a call count and a self time.
CALLED = [
    "bandit.select_super_arm", "bandit.sample_parameter", "bandit.update",
    "agents.ev_decide", "agents.ev_record", "agents.sample_cooperation_targets",
    "engine.run_instant", "engine.flood_requests",
    "gridnet.solve_power_flow", "gridnet.pv_power",
]
# Layer functions with a self time only (called once or per session).
SELF_TIMED = [
    "engine.generate_scenario", "strategies.session_start",
    "strategies.session_end", "strategies.centralized_oracle",
    "strategies.to_checkpoint", "config.parse_config", "cli.write_outputs",
]
COUNTERS = [
    "engine.flood_rounds", "engine.requests_initial",
    "engine.requests_delivered", "gridnet.sweep_iterations",
    "gridnet.nonconverged", "strategies.oracle_solves",
]
OUTCOMES = {  # name -> unit; simulated outcomes, not timings
    "metrics.total_cost": "cost",
    "metrics.violation_instants": "count",
    "metrics.fairness_last_half": "index",
}
PER_LAYER = {
    **{f"{n}.calls": "count" for n in CALLED},
    **{f"{n}.s": "s" for n in CALLED + SELF_TIMED},
    **{n: "count" for n in COUNTERS},
    "strategies.centralized_oracle.total_s": "s",
    "cli.checkpoint.s": "s",
    "cli.output_bytes": "B",
    "cli.checkpoint_bytes": "B",
    **OUTCOMES,
    "trace.run_s": "s",
    "trace.overhead_pct": "%",
}
# Per-layer metrics that must repeat exactly across runs at one seed.
EXACT = ([f"{n}.calls" for n in CALLED] + COUNTERS
         + ["cli.output_bytes", "cli.checkpoint_bytes"] + list(OUTCOMES))

OUTPUT_FILES = ["manifest.json", "metrics_daily.csv", "metrics_per_ev.csv",
                "plot_reward_vs_day.csv", "plot_cost_bars.csv", "summary.json"]
CHECKPOINT = "checkpoint.json"


class RunFailed(Exception):
    """A child run that exited non-zero or failed an output check."""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg": os.getloadavg(),
    }


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("GRIDCHARGE_OUTPUT_DIR", None)   # would override the config
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def digest_outputs(outdir: str, names) -> str:
    lines = []
    for name in names:
        h = hashlib.sha256()
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        lines.append(f"{name} {h.hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_outputs(outdir: str, config: dict, fleet: int) -> dict:
    """Validate one run's output directory; return its digest and outcomes."""
    names = OUTPUT_FILES + ([CHECKPOINT] if config["strategy"] == "amas" else [])
    present = sorted(os.listdir(outdir))
    if present != sorted(names):
        raise RunFailed(f"output files {present}, expected {sorted(names)}")
    days = config["days"]
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise RunFailed(f"summary.json: {key} is {value}")
    if summary["days"] != days or summary["strategy"] != config["strategy"]:
        raise RunFailed(f"summary.json does not match the config: {summary}")
    for name, rows in (("metrics_daily.csv", days + 1),
                       ("metrics_per_ev.csv", days * fleet + 1)):
        found = count_lines(os.path.join(outdir, name))
        if found != rows:
            raise RunFailed(f"{name}: {found} lines, expected {rows}")
    sizes = {n: os.path.getsize(os.path.join(outdir, n)) for n in names}
    fairness = summary["fairness_last_half"]
    return {
        "digest": digest_outputs(outdir, names),
        "cli.output_bytes": sum(v for n, v in sizes.items() if n != CHECKPOINT),
        "cli.checkpoint_bytes": sizes.get(CHECKPOINT, 0),
        "metrics.total_cost": summary["total_cost"],
        "metrics.violation_instants": (summary["current_violations"]
                                       + summary["voltage_violations"]),
        # The uncontrolled strategy reports no fairness; 0 stands for none.
        "metrics.fairness_last_half": 0.0 if fairness is None else fairness,
    }


class Bench:
    """Runs children for one workload and seed, checking every full run."""

    def __init__(self, src: str, config: dict, workdir: str, start: float):
        self.src = src
        self.config = config
        self.workdir = workdir
        self.start = start
        self.env = child_env(src)
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.errors = []
        self.longest = 0.0   # longest full child so far, to plan the next one
        # Children take turns on the CPUs this process may use: on a shared
        # host each CPU has its own quiet and busy stretches.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.launched = 0
        os.makedirs(workdir)
        with open(os.path.join(workdir, "workload.yaml"), "w",
                  encoding="utf-8") as fh:
            yaml.safe_dump({**config, "output_dir": "out"}, fh, sort_keys=False)

    def child(self, mode: str) -> dict:
        result_path = os.path.join(self.workdir, "result.json")
        timeout = DEADLINE_S - (time.perf_counter() - self.start)
        if timeout <= 0:
            raise RunFailed("no time left before the deadline")
        cpu = self.cpus[self.launched % len(self.cpus)]
        self.launched += 1
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, "--src", self.src,
                 "--config", "workload.yaml", "--result", "result.json",
                 "--checkpoint", os.path.join("out", CHECKPOINT),
                 "--mode", mode],
                cwd=self.workdir, env=self.env, capture_output=True,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
                text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} child exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise RunFailed(f"{mode} child exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result

    def full_run(self, mode: str):
        """One full command; returns its result, or None if it failed."""
        self.attempted += 1
        began = time.perf_counter()
        outdir = os.path.join(self.workdir, "out")
        try:
            result = self.child(mode)
            result.update(check_outputs(outdir, self.config, result["fleet"]))
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                raise RunFailed(f"output digest {result['digest'][:16]} differs "
                                f"from {self.digest[:16]}")
        except (RunFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{mode}: {exc}")
            result = None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
            self.longest = max(self.longest, time.perf_counter() - began)
        return result

    def time_for_another(self, seconds: float) -> bool:
        elapsed = time.perf_counter() - self.start
        return elapsed + self.longest <= seconds


def quantile(samples, q: float) -> float:
    """The q-quantile of the samples (inclusive method)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def best_pieces(runs, phase: str) -> list:
    """Each piece of one phase, timed as the best of the runs."""
    lists = [r["pieces"][phase] for r in runs]
    if len({len(p) for p in lists}) != 1:
        raise RunFailed(f"runs split the {phase} phase into "
                        f"{sorted({len(p) for p in lists})} pieces")
    return [min(times) for times in zip(*lists)]


def measure_untraced(bench: Bench, seconds: float):
    runs = []
    while True:
        result = bench.full_run("run")
        if result is not None:
            runs.append(result)
        if bench.attempted >= MIN_RUNS and not bench.time_for_another(seconds):
            break
    if not runs:
        return {}, {}
    # Every run of one seed does the same work, piece by piece, so each
    # piece is timed as the best of its repeats: on a shared host the slow
    # readings are other tenants' load, which comes and goes within
    # seconds, so different runs are slowed in different pieces.
    plan, sim, output = (best_pieces(runs, p) for p in ("plan", "sim", "output"))
    instants = [1000.0 * sim[g] for g in runs[0]["busy"]]
    setup = [r["setup_s"] for r in runs]
    n = len(runs)
    values = {
        "run_s": min(setup) + sum(plan) + sum(sim) + sum(output),
        "setup_s": statistics.median(setup),
        "plan_s": sum(plan),
        "fleet_instants_per_s": (runs[0]["fleet"] * runs[0]["instants"]
                                 / sum(sim)),
        "instant_ms_p50": statistics.median(instants),
        "instant_ms_p90": quantile(instants, 0.90),
        "output_s": sum(output),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0
                                         for r in runs),
    }
    pieces = {"plan_s": len(plan), "fleet_instants_per_s": len(sim),
              "output_s": len(output)}
    notes = {k: f"{pieces[k]} pieces, each best of {n}" for k in pieces}
    notes["run_s"] = f"set-up, plan, instant and output pieces, each best of {n}"
    notes["setup_s"] = f"median of {n}"
    notes["peak_rss_mb"] = f"median of {n}"
    notes["instant_ms_p50"] = notes["instant_ms_p90"] = (
        f"over {len(instants)} instants, each best of {n}")
    return values, notes


def layer_values(r: dict) -> dict:
    """Per-layer metrics of one traced child."""
    tr = r["trace"]
    calls, self_time, total = tr["calls"], tr["self"], tr["total"]
    out = {f"{n}.calls": calls.get(n, 0) for n in CALLED}
    out.update({f"{n}.s": self_time.get(n, 0.0) for n in CALLED + SELF_TIMED})
    out.update({n: tr["counts"].get(n, 0) for n in COUNTERS})
    out["strategies.centralized_oracle.total_s"] = total.get(
        "strategies.centralized_oracle", 0.0)
    out["cli.checkpoint.s"] = (r["checkpoint_s"]
                               - total.get("strategies.to_checkpoint", 0.0))
    out.update({k: r[k] for k in ("cli.output_bytes", "cli.checkpoint_bytes",
                                  *OUTCOMES)})
    out["trace.run_s"] = r["run_s"]
    return out


def measure_traced(bench: Bench, seconds: float):
    # Untraced and traced runs alternate, so that the tracing overhead
    # compares medians taken over the same stretch of time.
    untraced, traced = [], []
    while True:
        plain = bench.full_run("run")
        if plain is not None:
            untraced.append(plain["run_s"])
        result = bench.full_run("trace")
        if result is None:
            break                   # a failed traced child is not retried
        traced.append(layer_values(result))
        if len(traced) >= MIN_TRACED and not bench.time_for_another(seconds):
            break
    if not traced:
        return {}, {}
    first = traced[0]
    for later in traced[1:]:
        differ = [k for k in EXACT if later[k] != first[k]]
        if differ:
            bench.failed += 1
            bench.errors.append(f"counts differ between traced runs: {differ}")
    values = {k: (first[k] if k in EXACT
                  else statistics.median(t[k] for t in traced))
              for k in first}
    if untraced:
        values["trace.overhead_pct"] = 100.0 * (
            values["trace.run_s"] / statistics.median(untraced) - 1.0)
    notes = {k: f"{'same in' if k in EXACT else 'median of'} {len(traced)}"
             for k in values}
    return values, notes


def run_workload(name: str, config: dict, seed: int, seconds: float,
                 trace: bool, src: str):
    """Measure one workload; returns (result object, report lines)."""
    start = time.perf_counter()
    config = {**config, "seed": seed}
    workdir = os.path.abspath(os.path.join(WORK_ROOT, f"{name}-{os.getpid()}"))
    try:
        bench = Bench(src, config, workdir, start)
        measure = measure_traced if trace else measure_untraced
        try:
            values, notes = measure(bench, seconds)
        except RunFailed as exc:     # the runs split a phase differently
            bench.attempted += 1
            bench.failed += 1
            bench.errors.append(str(exc))
            values, notes = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    units = PER_LAYER if trace else {**END_TO_END, "plan_s": "s"}
    share = bench.failed / max(1, bench.attempted)
    lines = [f"workload {name} seed {seed} {'traced' if trace else 'untraced'}: "
             f"{bench.attempted} runs, failed {bench.failed} "
             f"({100.0 * share:.1f}%), output digest {bench.digest}"]
    lines += [f"  error: {e}" for e in bench.errors]
    for key, unit in units.items():
        if key in values:
            lines.append(f"  {key:40s} {values[key]:>16.6g} {unit:6s} "
                         f"({notes[key]})")
    if "trace.overhead_pct" in values:
        lines.append(f"  tracing overhead: {values['trace.overhead_pct']:+.1f}% "
                     "of the median untraced run_s in this run")
    wanted = PER_LAYER if trace else END_TO_END
    correct = bench.failed == 0 and all(k in values for k in wanted)
    result = {
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in wanted.items() if k in values},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # Exit through the interpreter on SIGTERM, so that the running child is
    # killed and waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "gridcharge", "__init__.py")):
        print("error: run from the root of a gridcharge checkout "
              "(src/gridcharge not found)", file=sys.stderr)
        return 2

    print("environment:", json.dumps(environment()))
    result, lines = run_workload(args.workload, WORKLOADS[args.workload],
                                 args.seed, args.seconds, bool(args.trace), src)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
