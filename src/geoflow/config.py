"""Pipeline configuration: the declared settings, JSON file loading, env overrides.

SETTINGS declares every operational constant of the pipeline once, by its
dotted name (`clean.coverage`): its default and the tables.Kind of the JSON
values it takes. A JSON config file may override any subset; environment
variables override both (GEOFLOW_<SECTION>_<KEY>, e.g.
GEOFLOW_CLEAN_COVERAGE=0.9, or GEOFLOW_SEED=7 for top-level keys).
tables.checked, the JSON artifacts' checker, reads the type of each override
as it is set and checks the ranges once, on the merged config, so a file
value out of range that an env value replaces still loads. An unknown key,
or a value of the wrong type or out of range (a bool is no integer, and a
number is finite), raises ConfigError: `<section>.<key> is <json>, not <kind>`.
"""

from __future__ import annotations

import copy
import json
import os
from contextlib import suppress
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from . import tables
from .tables import JSON_COUNT, JSON_LIST, JSON_NUMBER, JSON_OBJECT, JSON_TEXT, Kind

ENV_PREFIX = "GEOFLOW_"


class ConfigError(ValueError):
    """Malformed configuration: bad JSON, an unknown key, or a value of the wrong type or out of range."""


def _within(what: str, read: Callable[[Any], Any], interval: str) -> Kind:
    """The values `read` takes in `interval`, "[low, high]" with ( or ) for an open end: an open inf end admits
    every finite value and no infinity, and NaN is in no interval."""
    low, high = map(float, interval[1:-1].split(","))
    return Kind(f"{what} in {interval}", read, lambda values: all(
        (low < v if interval[0] == "(" else low <= v) and (v < high if interval[-1] == ")" else v <= high)
        for v in values))


_integers = partial(_within, "an integer", JSON_COUNT.read)  # an int, never a bool
_numbers = partial(_within, "a number", lambda value: float(JSON_NUMBER.read(value)))  # an int reads as a float


def _one_of(*texts: str) -> Kind:
    return Kind(" or ".join(map(json.dumps, texts)), JSON_TEXT.read, lambda values: set(values) <= set(texts))


_FINITE = _numbers("(-inf, inf)")
_GRAVITY = Kind("a list of 4 numbers", lambda value: list(map(_FINITE.read, JSON_LIST.read(value))),
                lambda values: all(len(value) == 4 and _FINITE.valid(value) for value in values))

# Every setting, by its dotted name: its default and the kind of the values it takes.
SETTINGS: dict[str, tuple[Any, Kind]] = {
    "seed": (0, _integers("[0, inf)")),
    "year": (2012, _integers("[1970, 9999]")),  # timestamps are seconds since 1970
    "paths.workdir": ("artifacts", JSON_TEXT),
    "paths.events": ("", JSON_TEXT),
    "paths.boundaries": ("", JSON_TEXT),
    "paths.census": ("", JSON_TEXT),
    "paths.capitals": ("", JSON_TEXT),
    "paths.reference": ("", JSON_TEXT),
    "clean.max_speed_kmh": (1000.0, _numbers("(0, inf)")),
    "clean.coverage": (0.95, _numbers("(0, 1]")),
    "clean.weight_mode": ("users", _one_of("users", "events")),  # what a source's popularity mass counts
    "residence.min_penetration": (0.0005, _numbers("[0, inf)")),
    "residence.min_residents": (10000, _integers("[0, inf)")),
    "metrics.gyration_over": ("all", _one_of("all", "mobile")),
    "network.min_outgoing": (500, _integers("[0, inf)")),
    "network.min_penetration": (0.0005, _numbers("[0, inf)")),
    "network.top_k": (30, _integers("[1, inf)")),
    "communities.max_levels": (3, _integers("[1, inf)")),
    "communities.restarts": (20, _integers("[1, inf)")),
    "communities.weights": ("est", _one_of("est", "raw")),
    "fit.powerlaw_xmin_km": (1.0, _numbers("(0, inf)")),
    "fit.min_distance_km": (100.0, _numbers("[0, inf)")),
    "synth.n_countries": (12, _integers("[1, 676]")),  # one two-letter code each
    "synth.users_per_country": (166, _integers("[1, inf)")),
    "synth.events_per_user": (50, _integers("[1, inf)")),
    "synth.trip_rate": (0.3, _numbers("[0, 1]")),
    "synth.bot_fraction": (0.05, _numbers("[0, 1)")),
    "synth.n_blocks": (1, _integers("[1, inf)")),  # and at most synth.n_countries
    "synth.block_boost": (1.0, _numbers("[1, inf)")),
    "synth.gravity": ([1.0, 1.0, 1.0, 1.0], _GRAVITY),  # A, alpha, beta, gamma
}
_KINDS = {name: kind for name, (_, kind) in SETTINGS.items()}
_ENV_NAMES = {name.replace(".", "_"): name for name in SETTINGS}  # GEOFLOW_<this>, in any case


def _nested(values: Mapping[str, Any]) -> dict[str, Any]:
    """Settings by dotted name as a config of sections: {"clean.coverage": v} reads {"clean": {"coverage": v}}."""
    config: dict[str, Any] = {}
    for name, value in values.items():
        section, _, key = name.rpartition(".")
        (config.setdefault(section, {}) if section else config)[key] = value
    return config


DEFAULTS: dict[str, Any] = _nested({name: default for name, (default, _) in SETTINGS.items()})


def default_config() -> dict[str, Any]:
    return copy.deepcopy(DEFAULTS)


def _checked(values: dict[str, Any], kinds: dict[str, Kind]) -> dict[str, Any]:
    """tables.checked over settings by dotted name, raising ConfigError."""
    try:
        return tables.checked("", values, kinds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read(name: str, value: Any) -> Any:
    """`value` as setting `name`'s kind reads it, its type alone: the range waits for the merged config."""
    return _checked({name: value}, {name: Kind(_KINDS[name].what, _KINDS[name].read)})[name]


def _file_settings(overrides: dict[str, Any]) -> Iterator[tuple[str, Any]]:
    """A config file's settings, each by its dotted name; ConfigError for a key that no setting or section has."""
    for key, value in overrides.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in SETTINGS:  # a top-level setting
            yield key, value
            continue
        for sub, sub_value in _checked({key: value}, {key: JSON_OBJECT})[key].items():  # a section's settings
            if f"{key}.{sub}" not in SETTINGS:
                raise ConfigError(f"unknown config key {key}.{sub}")
            yield f"{key}.{sub}", sub_value


def load_config(path: str | None = None, env: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Defaults, overlaid with a JSON file (if given), then env overrides."""
    values = {name: default for name, (default, _) in SETTINGS.items()}
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
        values.update((name, _read(name, value)) for name, value in _file_settings(overrides))
    env = os.environ if env is None else env
    for var in sorted(name for name in env if name.startswith(ENV_PREFIX)):
        name = _ENV_NAMES.get(var[len(ENV_PREFIX) :].lower())
        if name is None:
            raise ConfigError(f"{var}: does not name a known config key")
        value = env[var]
        if _KINDS[name].read is not JSON_TEXT.read:  # a text setting takes the text as written; any other, JSON
            with suppress(ValueError, RecursionError):  # not JSON, or an integer of more digits than int() reads
                value = json.loads(value)
        values[name] = _read(name, value)
    values = _checked(values, _KINDS)  # a copy: every list is read anew, so the defaults' stay apart
    _checked(values, {"synth.n_blocks": _integers(f"[1, {values['synth.n_countries']}]")})  # the one check across keys
    return _nested(values)
