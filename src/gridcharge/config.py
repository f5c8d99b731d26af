"""Run configuration: YAML parsing, validation, defaults, scenario assembly."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import yaml

from .engine import Scenario, generate_scenario, ingest_profile

__all__ = ["ConfigError", "RunConfig", "parse_config", "build_scenario",
           "default_pv_exploration"]

# Each range a number may be held to, by the name a SCHEMA entry gives.
RANGES = {
    ">= 0": lambda x: x >= 0,
    "> 0": lambda x: x > 0,
    ">= 1": lambda x: x >= 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1]": lambda x: 0 < x <= 1,
}

# key -> (type tag, default, accepted values) or a nested mapping; the
# accepted values are a RANGES name, a tuple of allowed strings, or None.
# The one home of every default: the library takes resolved subtrees and
# values, and has no default of its own for any key here.
SCHEMA = {
    "scenario": {
        "topology": {
            "sub_districts": ("int", 1, ">= 1"),
            "buses_per_feeder": ("int", 11, ">= 1"),
            "households_per_bus": ("int", 5, ">= 1"),
            "line_resistance": ("float", 0.001, ">= 0"),
            "line_reactance": ("float", 0.0005, None),
            "line_rating": ("float", 1300.0, "> 0"),
            "trunk_resistance": ("float", 0.0003, ">= 0"),
            "trunk_reactance": ("float", 0.0001, None),
            "trunk_rating": ("optional_float", None, "> 0"),
            "v_min": ("float", 0.95, "> 0"),
            "v_max": ("float", 1.05, None),
            "v_base": ("float", 230.0, "> 0"),
        },
        "fleet_size": ("int", 55, ">= 0"),
        "ev": {
            "e_bat_kwh": ("float", 52.0, "> 0"),
            "p_max_kw": ("float", 7.0, "> 0"),
            "eta_chrg": ("float", 0.95, "in (0, 1]"),
            "soc_start": ("float", 0.5, "in [0, 1]"),
            "soc_target": ("float", 0.8, "in [0, 1]"),
            "arrival_mean_hour": ("float", 17.5, None),
            "arrival_std_hour": ("float", 1.0, ">= 0"),
            "depart_mean_hour": ("float", 8.0, None),
            "depart_std_hour": ("float", 0.75, ">= 0"),
        },
        "pv": {
            "area_m2": ("float", 20.0, ">= 0"),
            "efficiency": ("float", 0.18, "in [0, 1]"),
        },
        "household_load_w": ("float", 300.0, ">= 0"),
        "instants_per_day": ("int", 96, ">= 1"),
        "price_csv": ("optional_str", None, None),
        "irradiance_csv": ("optional_str", None, None),
        "price_max": ("optional_float", None, "> 0"),
    },
    "strategy": ("str", "amas", ("amas", "uncontrolled", "oracle")),
    "days": ("int", 60, ">= 0"),
    "seed": ("int", 1, ">= 0"),
    "bandit": {
        "alpha": ("float", 0.5, ">= 0"),
        "beta": ("optional_float", None, ">= 0"),
    },
    "cooperation_fraction": ("float", 0.05, "in (0, 1]"),
    # One planner; configs that name it still parse.
    "oracle_mode": ("str", "greedy", ("greedy",)),
    "output_dir": ("str", "runs/out", None),
}


class ConfigError(ValueError):
    pass


def default_pv_exploration(pv_area: float, pv_efficiency: float) -> float:
    """`bandit.beta` when the config leaves it null: a tenth of the rated
    panel power."""
    return 0.1 * pv_area * pv_efficiency * 1000.0


def _coerce(value, spec, path):
    """`value` checked against its SCHEMA entry `spec`: type, then the
    accepted values."""
    tag, _, accepted = spec
    if value is None:
        if tag.startswith("optional_"):
            return None
        raise ConfigError(f"{path}: value may not be null")
    base = tag.removeprefix("optional_")
    if base == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif base == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:   # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
        value = number
    elif not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if isinstance(accepted, tuple):
        if value not in accepted:
            raise ConfigError(
                f"{path}: expected one of {accepted}, got {value!r}")
    elif accepted is not None and not RANGES[accepted](value):
        raise ConfigError(f"{path}: must be {accepted}, got {value!r}")
    return value


def _resolve(user, schema, prefix, defaults_applied):
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError(f"{prefix or 'config'}: expected a mapping")
    for key in user:
        if key not in schema:
            path = f"{prefix}.{key}" if prefix else key
            raise ConfigError(f"unknown key '{path}'")
    out = {}
    for key, spec in schema.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(spec, dict):
            out[key] = _resolve(user.get(key), spec, path, defaults_applied)
        elif key in user:
            out[key] = _coerce(user[key], spec, path)
        else:
            out[key] = spec[1]
            defaults_applied.append(f"{path}={spec[1]}")
    return out


@dataclass
class RunConfig:
    raw: dict                       # fully resolved key tree
    strategy: str
    days: int
    seed: int
    alpha: float
    beta: float
    cooperation_fraction: float
    output_dir: str
    defaults_applied: list = field(default_factory=list)
    overrides: dict = field(default_factory=dict)
    source_path: str = ""

    def scenario_key(self) -> dict:
        """The scenario-defining subtree plus seed (for compare checks)."""
        return {"scenario": self.raw["scenario"], "seed": self.seed,
                "days": self.days}


def parse_config(path, overrides=None) -> RunConfig:
    """Load, validate, and default-fill a YAML run config.

    `overrides` maps top-level keys (seed, days, strategy, output_dir) to
    replacement values applied after parsing; they are echoed in the run
    manifest alongside every applied default.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            user = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None

    defaults_applied = []
    tree = _resolve(user, SCHEMA, "", defaults_applied)

    applied = {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in ("seed", "days", "strategy", "output_dir"):
            raise ConfigError(f"override for unknown key '{key}'")
        tree[key] = _coerce(value, SCHEMA[key], key)
        applied[key] = tree[key]

    # Each key's own accepted values are checked in `_coerce`; what is left
    # ties two or more keys together.
    scen = tree["scenario"]
    topo, ev = scen["topology"], scen["ev"]
    # The trunk segment exists only with two or more sub-districts.
    for seg in ("line", "trunk") if topo["sub_districts"] >= 2 else ("line",):
        if topo[f"{seg}_resistance"] == topo[f"{seg}_reactance"] == 0.0:
            raise ConfigError(
                f"scenario.topology.{seg}_resistance, "
                f"scenario.topology.{seg}_reactance: impedance magnitude "
                "must be > 0")
    if not topo["v_min"] < topo["v_max"]:
        raise ConfigError("scenario.topology.v_min, scenario.topology.v_max: "
                          "need v_min < v_max")
    if not ev["soc_start"] <= ev["soc_target"]:
        raise ConfigError("scenario.ev.soc_start, scenario.ev.soc_target: "
                          "need soc_start <= soc_target")
    base_dir = os.path.dirname(os.path.abspath(path))
    for key in ("price_csv", "irradiance_csv"):
        p = scen[key]
        if p is not None:
            resolved = p if os.path.isabs(p) else os.path.join(base_dir, p)
            if not os.path.exists(resolved):
                raise ConfigError(f"scenario.{key}: file not found: {p}")
            scen[key] = resolved

    beta = tree["bandit"]["beta"]
    if beta is None:
        beta = default_pv_exploration(scen["pv"]["area_m2"],
                                      scen["pv"]["efficiency"])
        defaults_applied.append(f"bandit.beta={beta}")

    return RunConfig(
        raw=tree,
        strategy=tree["strategy"],
        days=tree["days"],
        seed=tree["seed"],
        alpha=tree["bandit"]["alpha"],
        beta=beta,
        cooperation_fraction=tree["cooperation_fraction"],
        output_dir=tree["output_dir"],
        defaults_applied=defaults_applied,
        overrides=applied,
        source_path=str(path),
    )


def build_scenario(rc: RunConfig) -> Scenario:
    sc = rc.raw["scenario"]
    m = sc["instants_per_day"]
    price = None
    if sc["price_csv"]:
        price = ingest_profile(sc["price_csv"], "price", m,
                               c_max=sc["price_max"])
    irr = None
    if sc["irradiance_csv"]:
        irr = ingest_profile(sc["irradiance_csv"], "irradiance", m)
    return generate_scenario(sc, rc.days, rc.seed, price, irr)
