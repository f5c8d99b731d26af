"""Batch entry point: run a strategy, compare strategies, validate configs.

All outputs are plain CSV/JSON and byte-deterministic for a fixed
(config, seed) pair. Plot files are data-only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import (SCHEMA, ConfigError, RunConfig, build_scenario,
                     parse_config)
from .engine import Simulation
from .metrics import (convergence_day, fairness_index, mean_daily_reward,
                      per_unit_costs)
from .strategies import (AmasStrategy, ScheduleStrategy, UncontrolledStrategy,
                         centralized_oracle)

OUTPUT_DIR_ENV = "GRIDCHARGE_OUTPUT_DIR"
MANIFEST_FORMAT = "gridcharge.run/1"


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def _strategy_for(rc: RunConfig, scenario):
    if rc.strategy == "amas":
        return AmasStrategy(alpha=rc.alpha, beta=rc.beta)
    if rc.strategy == "uncontrolled":
        return UncontrolledStrategy()
    if rc.strategy == "oracle":
        schedules = centralized_oracle(scenario)
        return ScheduleStrategy(schedules)
    raise ConfigError(f"unknown strategy {rc.strategy!r}")


def execute_run(rc: RunConfig):
    scenario = build_scenario(rc)
    strategy = _strategy_for(rc, scenario)
    sim = Simulation(scenario, strategy, rc.cooperation_fraction)
    return scenario, strategy, sim.run()


def _daily_fairness(sim):
    out = []
    for d in range(sim.sc.days):
        pu = per_unit_costs(sim.cost, sim.grid_energy, slice(d, d + 1))
        out.append(fairness_index(pu) if pu.size else None)
    return out


def summarize(rc: RunConfig, sim: Simulation) -> dict:
    rewards = mean_daily_reward(sim.mean_reward_ev)
    with_fairness = rc.strategy != "uncontrolled"
    days = sim.sc.days
    half = days // 2
    tail = slice(half, days) if days else slice(0, 0)
    pu_tail = per_unit_costs(sim.cost, sim.grid_energy, tail)
    summary = {
        "strategy": rc.strategy,
        "days": days,
        "seed": rc.seed,
        "total_cost": float(sim.cost.sum()),
        "total_grid_energy_kwh": float(sim.grid_energy.sum()),
        "mean_daily_cost_last_half": (
            float(sim.cost[tail].sum() / max(1, days - half))
            if days else 0.0),
        "current_violations": int(sim.violations_current.sum()),
        "voltage_violations": int(sim.violations_voltage.sum()),
        "convergence_day": convergence_day(rewards),
        "fairness_last_half": (
            fairness_index(pu_tail) if with_fairness and pu_tail.size else None),
    }
    return summary


def write_outputs(rc: RunConfig, sim: Simulation, outdir: str) -> dict:
    os.makedirs(outdir, exist_ok=True)
    with_fairness = rc.strategy != "uncontrolled"

    manifest = {
        "format": MANIFEST_FORMAT,
        "config": rc.raw,
        "config_path": rc.source_path,
        "defaults_applied": rc.defaults_applied,
        "overrides": rc.overrides,
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)

    rewards = mean_daily_reward(sim.mean_reward_ev)
    fair = _daily_fairness(sim) if with_fairness else None
    days = sim.sc.days

    header = "day,mean_reward,total_cost,current_violations,voltage_violations"
    if with_fairness:
        header += ",fairness"
    lines = [header]
    for d in range(days):
        row = [str(d + 1), _fmt(rewards[d]), _fmt(sim.cost[d].sum()),
               str(int(sim.violations_current[d])),
               str(int(sim.violations_voltage[d]))]
        if with_fairness:
            row.append(_fmt(fair[d]))
        lines.append(",".join(row))
    _write_text(os.path.join(outdir, "metrics_daily.csv"), lines)

    lines = ["day,ev_id,cost,grid_energy_kwh,battery_energy_kwh,"
             "mean_reward,final_soc"]
    for d in range(days):
        for j, ev in enumerate(sim.fleet.ev_ids):
            lines.append(",".join([
                str(d + 1), ev, _fmt(sim.cost[d, j]),
                _fmt(sim.grid_energy[d, j]),
                _fmt(sim.battery_energy[d, j]),
                _fmt(sim.mean_reward_ev[d, j]),
                _fmt(sim.final_soc[d, j]),
            ]))
    _write_text(os.path.join(outdir, "metrics_per_ev.csv"), lines)

    lines = ["day,mean_reward"]
    for d in range(days):
        lines.append(f"{d + 1},{_fmt(rewards[d])}")
    _write_text(os.path.join(outdir, "plot_reward_vs_day.csv"), lines)

    summary = summarize(rc, sim)
    _write_json(os.path.join(outdir, "summary.json"), summary)

    lines = ["strategy,total_cost,mean_daily_cost_last_half"]
    lines.append(",".join([rc.strategy, _fmt(summary["total_cost"]),
                           _fmt(summary["mean_daily_cost_last_half"])]))
    _write_text(os.path.join(outdir, "plot_cost_bars.csv"), lines)
    return summary


def _write_text(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    # One write: `json.dump` with an indent writes chunk by chunk.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _overrides_from_args(args):
    overrides = {"seed": args.seed, "days": args.days,
                 "strategy": getattr(args, "strategy", None),
                 "output_dir": args.output_dir}
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir and overrides["output_dir"] is None:
        overrides["output_dir"] = env_dir
    return overrides


def cmd_run(args) -> int:
    rc = parse_config(args.config, _overrides_from_args(args))
    scenario, strategy, sim = execute_run(rc)
    summary = write_outputs(rc, sim, rc.output_dir)
    if isinstance(strategy, AmasStrategy):
        strategy.days_completed = scenario.days
        _write_json(os.path.join(rc.output_dir, "checkpoint.json"),
                    strategy.to_checkpoint())
    print(f"run complete: {rc.strategy}, {scenario.days} days -> {rc.output_dir}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    rcs = [parse_config(p) for p in args.configs]
    base = rcs[0].scenario_key()
    for rc in rcs[1:]:
        if rc.scenario_key() != base:
            raise ConfigError(
                "compare requires configs that share the scenario, seed, and "
                f"days; {rc.source_path} differs from {rcs[0].source_path}")
    rows = []
    for rc in rcs:
        rows.append(summarize(rc, execute_run(rc)[2]))

    outdir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) \
        or rcs[0].output_dir
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "comparison.json"), {"strategies": rows})
    lines = ["strategy,total_cost,mean_daily_cost_last_half,"
             "current_violations,voltage_violations,fairness_last_half"]
    for row in rows:
        lines.append(",".join([
            row["strategy"], _fmt(row["total_cost"]),
            _fmt(row["mean_daily_cost_last_half"]),
            str(row["current_violations"]), str(row["voltage_violations"]),
            _fmt(row["fairness_last_half"]),
        ]))
    _write_text(os.path.join(outdir, "comparison.csv"), lines)
    print(f"comparison written to {outdir}")
    for row in rows:
        print(f"  {row['strategy']}: total_cost={row['total_cost']:.4f} "
              f"violations={row['current_violations']}+{row['voltage_violations']}")
    return 0


def cmd_validate(args) -> int:
    rc = parse_config(args.config)
    build_scenario(rc)
    print(f"{args.config}: valid ({len(rc.defaults_applied)} defaults applied)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridcharge",
        description="Decentralized EV smart-charging simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one strategy on one config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--days", type=int)
    p_run.add_argument("--strategy", choices=SCHEMA["strategy"][2])
    p_run.add_argument("--output-dir")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several configs sharing one scenario")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--output-dir")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="parse and check a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
