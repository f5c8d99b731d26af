"""Run configuration: YAML parsing, validation, defaults, scenario assembly."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import yaml

from .engine import (EvParams, Scenario, ScenarioConfig, generate_scenario,
                     ingest_profile)
from .gridnet import FeederSpec
from .strategies import default_pv_exploration

__all__ = ["ConfigError", "RunConfig", "parse_config", "build_scenario"]

STRATEGIES = ("amas", "uncontrolled", "oracle")
ORACLE_MODES = ("exhaustive", "greedy")

_OPT_FLOAT = ("optional_float", None)
_OPT_STR = ("optional_str", None)

# key -> (type tag, default) or a nested mapping
SCHEMA = {
    "scenario": {
        "topology": {
            "sub_districts": ("int", 1),
            "buses_per_feeder": ("int", 11),
            "households_per_bus": ("int", 5),
            "line_resistance": ("float", 0.001),
            "line_reactance": ("float", 0.0005),
            "line_rating": ("float", 1300.0),
            "trunk_resistance": ("float", 0.0003),
            "trunk_reactance": ("float", 0.0001),
            "trunk_rating": _OPT_FLOAT,
            "v_min": ("float", 0.95),
            "v_max": ("float", 1.05),
            "v_base": ("float", 230.0),
        },
        "fleet_size": ("int", 55),
        "ev": {
            "e_bat_kwh": ("float", 52.0),
            "p_max_kw": ("float", 7.0),
            "eta_chrg": ("float", 0.95),
            "soc_start": ("float", 0.5),
            "soc_target": ("float", 0.8),
            "arrival_mean_hour": ("float", 17.5),
            "arrival_std_hour": ("float", 1.0),
            "depart_mean_hour": ("float", 8.0),
            "depart_std_hour": ("float", 0.75),
        },
        "pv": {
            "area_m2": ("float", 20.0),
            "efficiency": ("float", 0.18),
        },
        "household_load_w": ("float", 300.0),
        "instants_per_day": ("int", 96),
        "price_csv": _OPT_STR,
        "irradiance_csv": _OPT_STR,
        "price_max": _OPT_FLOAT,
    },
    "strategy": ("str", "amas"),
    "days": ("int", 60),
    "seed": ("int", 1),
    "bandit": {
        "alpha": ("float", 0.5),
        "beta": _OPT_FLOAT,
    },
    "cooperation_fraction": ("float", 0.05),
    "oracle_mode": ("str", "greedy"),
    "output_dir": ("str", "runs/out"),
}


class ConfigError(ValueError):
    pass


def _coerce(value, tag, path):
    optional = tag.startswith("optional_")
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{path}: value may not be null")
    base = tag.removeprefix("optional_")
    if base == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if base == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:   # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
        return number
    if base == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise AssertionError(tag)


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
            out[key] = _coerce(user[key], spec[0], path)
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
    oracle_mode: str
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
        tree[key] = _coerce(value, SCHEMA[key][0], key)
        applied[key] = tree[key]

    if tree["strategy"] not in STRATEGIES:
        raise ConfigError(
            f"strategy: expected one of {STRATEGIES}, got {tree['strategy']!r}")
    if tree["days"] < 0:
        raise ConfigError("days: must be >= 0")
    if tree["oracle_mode"] not in ORACLE_MODES:
        raise ConfigError(f"oracle_mode: expected one of {ORACLE_MODES}")
    scen, bandit = tree["scenario"], tree["bandit"]
    topo = scen["topology"]
    for key in ("sub_districts", "buses_per_feeder", "households_per_bus"):
        if topo[key] < 1:
            raise ConfigError(f"scenario.topology.{key}: must be >= 1")
    for key in ("v_base", "line_rating", "trunk_rating"):
        if topo[key] is not None and topo[key] <= 0.0:
            raise ConfigError(f"scenario.topology.{key}: must be > 0")
    for seg in ("line", "trunk"):
        r, x = topo[f"{seg}_resistance"], topo[f"{seg}_reactance"]
        if r < 0.0:
            raise ConfigError(f"scenario.topology.{seg}_resistance: "
                              "must be >= 0")
        # The trunk segment exists only with two or more sub-districts.
        used = seg == "line" or topo["sub_districts"] >= 2
        if used and r == x == 0.0:
            raise ConfigError(
                f"scenario.topology.{seg}_resistance, "
                f"scenario.topology.{seg}_reactance: impedance magnitude "
                "must be > 0")
    if not (0.0 < topo["v_min"] < topo["v_max"]):
        raise ConfigError("scenario.topology.v_min, scenario.topology.v_max: "
                          "need 0 < v_min < v_max")
    if scen["fleet_size"] < 0:
        raise ConfigError("scenario.fleet_size: must be >= 0")
    sites = (topo["sub_districts"] * topo["buses_per_feeder"]
             * topo["households_per_bus"])
    if scen["fleet_size"] > sites:
        raise ConfigError(f"scenario.fleet_size: {scen['fleet_size']} "
                          f"exceeds {sites} household sites")
    if scen["instants_per_day"] < 1:
        raise ConfigError("scenario.instants_per_day: must be >= 1")
    for key, value in (("scenario.household_load_w", scen["household_load_w"]),
                       ("scenario.pv.area_m2", scen["pv"]["area_m2"]),
                       ("bandit.alpha", bandit["alpha"]),
                       ("bandit.beta", bandit["beta"])):
        if value is not None and value < 0.0:
            raise ConfigError(f"{key}: must be >= 0")
    if not (0.0 <= scen["pv"]["efficiency"] <= 1.0):
        raise ConfigError("scenario.pv.efficiency: must be in [0, 1]")
    ev = scen["ev"]
    for key in ("e_bat_kwh", "p_max_kw"):
        if ev[key] <= 0.0:
            raise ConfigError(f"scenario.ev.{key}: must be > 0")
    if not (0.0 < ev["eta_chrg"] <= 1.0):
        raise ConfigError("scenario.ev.eta_chrg: must be in (0, 1]")
    for key in ("arrival_std_hour", "depart_std_hour"):
        if ev[key] < 0.0:
            raise ConfigError(f"scenario.ev.{key}: must be >= 0")
    if not (0.0 <= ev["soc_start"] <= ev["soc_target"] <= 1.0):
        raise ConfigError("scenario.ev.soc_start, scenario.ev.soc_target: "
                          "need 0 <= soc_start <= soc_target <= 1")
    if not (0.0 < tree["cooperation_fraction"] <= 1.0):
        raise ConfigError("cooperation_fraction: must be in (0, 1]")
    if tree["strategy"] == "oracle" and tree["oracle_mode"] == "exhaustive" \
            and tree["scenario"]["fleet_size"] > 12:
        raise ConfigError(
            "oracle_mode exhaustive supports at most 12 EVs; "
            f"fleet_size is {tree['scenario']['fleet_size']}")
    base_dir = os.path.dirname(os.path.abspath(path))
    for key in ("price_csv", "irradiance_csv"):
        p = tree["scenario"][key]
        if p is not None:
            resolved = p if os.path.isabs(p) else os.path.join(base_dir, p)
            if not os.path.exists(resolved):
                raise ConfigError(f"scenario.{key}: file not found: {p}")
            tree["scenario"][key] = resolved

    beta = tree["bandit"]["beta"]
    if beta is None:
        beta = default_pv_exploration(tree["scenario"]["pv"]["area_m2"],
                                      tree["scenario"]["pv"]["efficiency"])
        defaults_applied.append(f"bandit.beta={beta}")

    return RunConfig(
        raw=tree,
        strategy=tree["strategy"],
        days=tree["days"],
        seed=tree["seed"],
        alpha=tree["bandit"]["alpha"],
        beta=beta,
        cooperation_fraction=tree["cooperation_fraction"],
        oracle_mode=tree["oracle_mode"],
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
    cfg = ScenarioConfig(
        feeder=FeederSpec(**sc["topology"]),
        fleet_size=sc["fleet_size"],
        ev=EvParams(**sc["ev"]),
        pv_area_m2=sc["pv"]["area_m2"],
        pv_efficiency=sc["pv"]["efficiency"],
        household_load_w=sc["household_load_w"],
        m=m,
        price_profile=price,
        irradiance_profile=irr,
    )
    return generate_scenario(cfg, rc.days, rc.seed)
