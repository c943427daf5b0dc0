"""Pipeline configuration: defaults, JSON file loading, env overrides.

Every operational constant of the pipeline is a named key with a default,
grouped by stage. A JSON config file may override any subset; environment
variables override both (GEOFLOW_<SECTION>_<KEY>, e.g.
GEOFLOW_CLEAN_COVERAGE=0.9, or GEOFLOW_SEED=7 for top-level keys). Unknown
sections or keys, or values of the wrong type, are rejected loudly.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any, Mapping

ENV_PREFIX = "GEOFLOW_"


class ConfigError(ValueError):
    """Malformed configuration: bad JSON, unknown key, or wrong type."""


DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "year": 2012,
    "paths": {
        "workdir": "artifacts",
        "events": "",
        "boundaries": "",
        "census": "",
        "capitals": "",
        "reference": "",
    },
    "clean": {
        "max_speed_kmh": 1000.0,
        "coverage": 0.95,
        "weight_mode": "users",  # "users" or "events" popularity mass
    },
    "residence": {
        "min_penetration": 0.0005,
        "min_residents": 10000,
    },
    "metrics": {
        "gyration_over": "all",  # or "mobile"
    },
    "network": {
        "min_outgoing": 500,
        "min_penetration": 0.0005,
        "top_k": 30,
    },
    "communities": {
        "max_levels": 3,
        "restarts": 20,
        "weights": "est",  # or "raw"
    },
    "fit": {
        "powerlaw_xmin_km": 1.0,
        "min_distance_km": 100.0,
    },
    "synth": {
        "n_countries": 12,
        "users_per_country": 166,
        "events_per_user": 50,
        "trip_rate": 0.3,
        "bot_fraction": 0.05,
        "n_blocks": 1,
        "block_boost": 1.0,
        "gravity": [1.0, 1.0, 1.0, 1.0],  # A, alpha, beta, gamma
    },
}


def default_config() -> dict[str, Any]:
    return copy.deepcopy(DEFAULTS)


def _float(label: str, value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer such as 10**400
        raise ConfigError(f"{label}: number too large for a float") from None


def _check_type(section: str, key: str, value: Any, template: Any) -> Any:
    label = f"{section}.{key}" if section else key
    if isinstance(template, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{label}: expected integer, got {value!r}")
        return value
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{label}: expected number, got {value!r}")
        return _float(label, value)
    if isinstance(template, str):
        if not isinstance(value, str):
            raise ConfigError(f"{label}: expected string, got {value!r}")
        return value
    if isinstance(template, list):
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{label}: expected list of numbers, got {value!r}")
        if len(value) != len(template):
            raise ConfigError(f"{label}: expected {len(template)} numbers, got {len(value)}")
        return [_float(label, v) for v in value]
    raise ConfigError(f"{label}: unsupported config type {type(template).__name__}")


def _merge(config: dict[str, Any], overrides: Mapping[str, Any]) -> None:
    for key, value in overrides.items():
        if key not in config:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected an object of settings")
            for sub, sub_value in value.items():
                if sub not in config[key]:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                config[key][sub] = _check_type(key, sub, sub_value, DEFAULTS[key][sub])
        else:
            config[key] = _check_type("", key, value, DEFAULTS[key])


def _parse_env_value(raw: str, template: Any) -> Any:
    """A string setting takes the text as written; any other setting reads it as JSON if it can."""
    if isinstance(template, str):
        return raw
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, or an integer of more digits than int() reads
        return raw


def _apply_env(config: dict[str, Any], env: Mapping[str, str]) -> None:
    for name in sorted(env):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :].lower()
        section, _, key = rest.partition("_")
        if section in config and isinstance(config[section], dict) and key:
            if key not in config[section]:
                raise ConfigError(f"{name}: unknown config key {section}.{key}")
            template = DEFAULTS[section][key]
            config[section][key] = _check_type(section, key, _parse_env_value(env[name], template), template)
        elif rest in config and not isinstance(config[rest], dict):
            config[rest] = _check_type("", rest, _parse_env_value(env[name], DEFAULTS[rest]), DEFAULTS[rest])
        else:
            raise ConfigError(f"{name}: does not name a known config key")


def _validate_ranges(config: dict[str, Any]) -> None:
    checks = [
        (config["seed"] >= 0, "seed must be nonnegative"),
        (1970 <= config["year"] <= 9999, "year must be in [1970, 9999]"),
        (config["clean"]["max_speed_kmh"] > 0, "clean.max_speed_kmh must be positive"),
        (0 < config["clean"]["coverage"] <= 1, "clean.coverage must be in (0, 1]"),
        (config["clean"]["weight_mode"] in ("users", "events"), "clean.weight_mode must be 'users' or 'events'"),
        (config["residence"]["min_penetration"] >= 0, "residence.min_penetration must be >= 0"),
        (config["residence"]["min_residents"] >= 0, "residence.min_residents must be >= 0"),
        (config["metrics"]["gyration_over"] in ("all", "mobile"), "metrics.gyration_over must be 'all' or 'mobile'"),
        (config["network"]["min_outgoing"] >= 0, "network.min_outgoing must be >= 0"),
        (config["network"]["min_penetration"] >= 0, "network.min_penetration must be >= 0"),
        (config["network"]["top_k"] >= 1, "network.top_k must be >= 1"),
        (config["communities"]["max_levels"] >= 1, "communities.max_levels must be >= 1"),
        (config["communities"]["restarts"] >= 1, "communities.restarts must be >= 1"),
        (config["communities"]["weights"] in ("est", "raw"), "communities.weights must be 'est' or 'raw'"),
        (config["fit"]["powerlaw_xmin_km"] > 0, "fit.powerlaw_xmin_km must be positive"),
        (config["fit"]["min_distance_km"] >= 0, "fit.min_distance_km must be >= 0"),
        (1 <= config["synth"]["n_countries"] <= 676, "synth.n_countries must be in [1, 676]"),
        (config["synth"]["users_per_country"] >= 1, "synth.users_per_country must be >= 1"),
        (config["synth"]["events_per_user"] >= 1, "synth.events_per_user must be >= 1"),
        (0 <= config["synth"]["trip_rate"] <= 1, "synth.trip_rate must be in [0, 1]"),
        (0 <= config["synth"]["bot_fraction"] < 1, "synth.bot_fraction must be in [0, 1)"),
        (
            1 <= config["synth"]["n_blocks"] <= config["synth"]["n_countries"],
            "synth.n_blocks must be in [1, synth.n_countries]",
        ),
        (config["synth"]["block_boost"] >= 1, "synth.block_boost must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def load_config(path: str | None = None, env: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Defaults, overlaid with a JSON file (if given), then env overrides."""
    config = default_config()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise FileNotFoundError(f"config file not readable: {path}") from exc
        except ValueError as exc:  # not JSON, not UTF-8, or an integer of more digits than int() reads
            raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config file nests too deeply: {path}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config root must be a JSON object")
        _merge(config, overrides)
    _apply_env(config, os.environ if env is None else env)
    _validate_ranges(config)
    return config
