"""Run one `gridcharge run` in this process and record where its time went.

Started by `run.py` in a fresh interpreter, with the working directory set
to the run's scratch directory and `PYTHONPATH` pointing at the checkout's
`src`. The program is measured from outside: the functions below are
wrapped under the names their callers look them up by, and no file of the
program changes.

    python3 child.py --src <checkout>/src --config workload.yaml \
        --result result.json --checkpoint out/checkpoint.json \
        --mode run|trace

`run` records only the end-to-end timers. Besides the phase totals
(set-up, planning, simulation, output) it splits each phase into pieces
that do the same work in every run of one config and seed: oracle
planning at every `PLAN_STRIDE`-th power-flow solve, the simulation at
the end of every instant, and the output at the end of `write_outputs`,
of `to_checkpoint` and at every `CHECKPOINT_STRIDE` bytes of the
checkpoint file, which a thread samples while it is written. `trace` adds
a span around every layer function wrapped in `install_trace` and writes
call counts, total and self times and work counters.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()   # before gridcharge (and numpy) is imported

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import threading
from collections import defaultdict

PLAN_STRIDE = 50                  # oracle power-flow solves per plan piece
CHECKPOINT_STRIDE = 1 << 20       # checkpoint bytes per output piece
SAMPLE_PERIOD_S = 0.005           # how often the checkpoint's size is read


class Tracer:
    """Spans around wrapped functions: calls, total and self time, counters.

    A span's self time is its duration minus the time of the spans nested
    in it. Counters are filled by `on_result` hooks from the arguments and
    return values of the wrapped calls.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []   # time spent in child spans, one slot per open span

    def wrap(self, owner, attr, name, on_result=None):
        fn = getattr(owner, attr)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - inner
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(owner, attr, wrapper)


class FileGrowth(threading.Thread):
    """Samples (clock, size in bytes) of a file while it is being written."""

    def __init__(self, path: str, start: float):
        super().__init__(daemon=True)
        self.path = path
        self.samples = [(start, 0)]
        self.done = threading.Event()

    def size(self) -> int:
        try:
            return os.stat(self.path).st_size
        except FileNotFoundError:
            return 0

    def run(self):
        while not self.done.wait(SAMPLE_PERIOD_S):
            self.samples.append((time.perf_counter(), self.size()))

    def finish(self, end: float) -> list:
        """Stop sampling; returns the times the file reached each stride."""
        self.done.set()
        self.join()
        self.samples.append((end, self.size()))
        marks, target = [], CHECKPOINT_STRIDE
        for (t0, s0), (t1, s1) in zip(self.samples, self.samples[1:]):
            while s0 < target <= s1:
                marks.append(t0 + (t1 - t0) * (target - s0) / (s1 - s0))
                target += CHECKPOINT_STRIDE
        return marks


def split(start: float, marks: list, end: float) -> list:
    """Durations of the pieces that the marks cut [start, end] into."""
    points = [start, *marks, end]
    return [b - a for a, b in zip(points, points[1:])]


def connected_instants(sc) -> set:
    """Global instants at which at least one EV is plugged in.

    Follows the engine's session rule from the scenario's public fields:
    each simulated day an EV plugs in at `t_arrive` and stays connected for
    `window_length` instants.
    """
    busy = set()
    for p in sc.fleet:
        for day in range(sc.days):
            start = day * sc.m + p.t_arrive
            busy.update(range(start, start + p.window_length))
    return busy


def install_trace(tracer, agents, cli, config, engine, strategies):
    """Wrap every traced layer function under the name its caller uses."""
    counts = tracer.counts

    def on_solve(args, sol):
        counts["gridnet.sweep_iterations"] += sol.iterations
        counts["gridnet.nonconverged"] += not sol.converged

    def on_oracle_solve(args, sol):
        on_solve(args, sol)
        counts["strategies.oracle_solves"] += 1

    def on_flood(args, out):
        received, rounds = out
        counts["engine.flood_rounds"] += rounds
        counts["engine.requests_initial"] += len(args[2])
        counts["engine.requests_delivered"] += sum(map(len, received.values()))

    wrap = tracer.wrap
    wrap(engine, "solve_power_flow", "gridnet.solve_power_flow", on_solve)
    wrap(strategies, "solve_power_flow", "gridnet.solve_power_flow",
         on_oracle_solve)
    wrap(engine, "pv_power", "gridnet.pv_power")
    wrap(engine, "flood_requests", "engine.flood_requests", on_flood)
    wrap(engine, "sample_cooperation_targets",
         "agents.sample_cooperation_targets")
    wrap(engine.Simulation, "run_instant", "engine.run_instant")
    wrap(config, "generate_scenario", "engine.generate_scenario")
    wrap(agents, "ev_decide", "agents.ev_decide")
    wrap(agents, "select_super_arm", "bandit.select_super_arm")
    wrap(strategies, "ev_record", "agents.ev_record")
    wrap(strategies, "sample_parameter", "bandit.sample_parameter")
    wrap(strategies, "update_day", "bandit.update")
    wrap(strategies, "update_pv", "bandit.update")
    wrap(strategies.AmasStrategy, "session_start", "strategies.session_start")
    wrap(strategies.AmasStrategy, "session_end", "strategies.session_end")
    wrap(strategies.AmasStrategy, "to_checkpoint", "strategies.to_checkpoint")
    wrap(cli, "centralized_oracle", "strategies.centralized_oracle")
    wrap(cli, "parse_config", "config.parse_config")
    wrap(cli, "write_outputs", "cli.write_outputs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--checkpoint", required=True,
                    help="path of the checkpoint file the command writes")
    ap.add_argument("--mode", choices=["run", "trace"], default="run")
    args = ap.parse_args(argv)

    import gridcharge
    from gridcharge import agents, cli, config, engine, strategies

    expected = os.path.realpath(os.path.join(args.src, "gridcharge"))
    found = os.path.dirname(os.path.realpath(gridcharge.__file__))
    if found != expected:
        print(f"gridcharge imported from {found}, expected {expected}",
              file=sys.stderr)
        return 3

    marks = {}
    instant_end = []    # clock at the end of each instant, in order
    plan_marks = []     # clock after every PLAN_STRIDE-th oracle solve
    growth = []         # the checkpoint's FileGrowth, once it is written
    sim_shape = {}
    clock = time.perf_counter

    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        install_trace(tracer, agents, cli, config, engine, strategies)

    # End-to-end timers, installed outermost so they also hold in trace mode.
    run_instant = engine.Simulation.run_instant

    def timed_instant(self, g):
        out = run_instant(self, g)
        instant_end.append(clock())
        return out

    sim_run = engine.Simulation.run

    def timed_run(self):
        marks["sim_start"] = clock()
        sim_shape["fleet"] = len(self.sc.fleet)
        out = sim_run(self)
        marks["sim_end"] = clock()
        sim_shape["scenario"] = self.sc
        return out

    oracle = cli.centralized_oracle

    def timed_oracle(scenario, *a, **kw):
        marks["plan_start"] = clock()
        out = oracle(scenario, *a, **kw)
        marks["plan_end"] = clock()
        return out

    oracle_solve = strategies.solve_power_flow

    def counted_solve(*a, **kw):
        out = oracle_solve(*a, **kw)
        marks["solves"] = solves = marks.get("solves", 0) + 1
        if solves % PLAN_STRIDE == 0:
            plan_marks.append(clock())
        return out

    write_outputs = cli.write_outputs

    def timed_write_outputs(*a, **kw):
        out = write_outputs(*a, **kw)
        marks["outputs_end"] = clock()
        return out

    to_checkpoint = strategies.AmasStrategy.to_checkpoint

    def timed_to_checkpoint(self):
        out = to_checkpoint(self)
        marks["payload_end"] = now = clock()
        growth.append(FileGrowth(args.checkpoint, now))
        growth[0].start()
        return out

    engine.Simulation.run_instant = timed_instant
    engine.Simulation.run = timed_run
    cli.centralized_oracle = timed_oracle
    strategies.solve_power_flow = counted_solve
    cli.write_outputs = timed_write_outputs
    strategies.AmasStrategy.to_checkpoint = timed_to_checkpoint

    status = 0
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["run", "--config", args.config])
    finally:
        end = clock()
        byte_marks = growth[0].finish(end) if growth else []

    result = {"status": status,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if status == 0:
        plan = (split(marks["plan_start"], plan_marks, marks["plan_end"])
                if "plan_start" in marks else [])
        output_marks = [marks["outputs_end"]]
        if growth:
            output_marks += [marks["payload_end"], *byte_marks]
        result.update(
            fleet=sim_shape["fleet"],
            setup_s=marks["sim_start"] - T_START - sum(plan),
            run_s=end - T_START,
            checkpoint_s=end - marks["outputs_end"],
            instants=len(instant_end),
            busy=sorted(connected_instants(sim_shape["scenario"])),
            pieces={
                "plan": plan,
                # piece g ends with instant g; the last piece is the
                # return from Simulation.run
                "sim": split(marks["sim_start"], instant_end,
                             marks["sim_end"]),
                "output": split(marks["sim_end"], output_marks, end),
            },
        )
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls), "total": dict(tracer.total),
            "self": dict(tracer.self_time), "counts": dict(tracer.counts),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
