"""Command-line pipeline over file artifacts.

Each stage subcommand reads its predecessor's artifacts from the configured
work directory and writes its own; `run` executes every stage in order. A
single-stage command reads the events and user profiles it needs back from
the artifacts, while `run` hands them from stage to stage in memory, so it
parses the event file once and builds the profiles once; both write the
same bytes. What `run` holds between stages grows by a few bytes per event
and a few tens per user: the event table, the profiles as columns (one
residence.UserTable) from `profile` to `network`, and the displacement and
gyration samples as float64 arrays from `metrics` to `fit-powerlaw`.
`clean` copies the kept lines out of `events_labeled.csv` instead of
formatting them again, at the line ends it finds by scanning that file.
The stages' other temporaries are a block of rows or of whole users, so
`run` peaks at about one event table plus its sort: on 10^6 events with
50 per user, at 77 MiB in `clean` (the 28.5 MiB table, its int32
trajectory order and the sorted copy of one column, over the 30.7 MiB of
the interpreter and numpy).
Both the CSV and the JSON artifacts are written and read through what
ARTIFACTS declares. Workspace.write_table writes every CSV artifact but the
event files: lists (the small tables) a row at a time by tables.write_rows,
arrays and (vocabulary, codes) pairs (per user or day) a block at a time
by tables.csv_blocks, cheaper from ~300 rows on.
All randomness flows from the single `seed` config key, and no artifact
embeds timestamps or machine state, so identical configs produce
byte-identical outputs.

Exit codes: 0 success, 2 usage error, 3 malformed config, 4 missing input
file, 5 stage-order violation (a required intermediate artifact is
absent), 6 data error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from . import clean as clean_mod
from . import community as community_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import models as models_mod
from . import network as network_mod
from . import residence as residence_mod
from . import tables
from .config import ConfigError, load_config
from .tables import (BOOL, COUNT, DISTANCE, INTEGER, JSON_BOOL, JSON_COUNT, JSON_LIST, JSON_NUMBER, JSON_OBJECT,
                     JSON_TEXT, NAME, NONNEGATIVE, NUMBER, TEXT)

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_MISSING_INPUT = 4
EXIT_STAGE_ORDER = 5
EXIT_DATA = 6


class StageOrderError(RuntimeError):
    """A stage ran before the stage that produces its input artifact."""


class Artifact(NamedTuple):
    stage: str  # the command that writes it
    header: dict[str, tables.Kind] | None = None  # its CSV columns, each with the kind of its cells; None if not CSV
    keys: dict[str, Any] | None = None  # its JSON keys, each with the kind of its value (_checked); None if not JSON
    legs: bool = False  # JSON: an object of legs, each holding the keys or, where its fit failed, {"error": text}

    def json_keys(self, doc: dict[str, Any]) -> dict[str, Any]:
        """The keys JSON document `doc` holds (_checked): the declared ones, or an object of them in each leg."""
        return dict.fromkeys(doc, self.keys) if self.legs else self.keys


_EVENTS = dict(zip(tables.EVENT_HEADER, (NAME, COUNT, NUMBER, NUMBER, TEXT, TEXT)))
_DAILY = dict(code=NAME, day=COUNT, count=COUNT, normalized=NONNEGATIVE)
_KM = dict(user_id=NAME, km=DISTANCE)
_RAW_FLOW = dict(origin=NAME, destination=NAME, raw_weight=COUNT)
_FLOW = dict(_RAW_FLOW, est_weight=NONNEGATIVE)

# Every file the commands write into paths.workdir. communities.csv appends
# one column per partition level to its header (Workspace.columns).
ARTIFACTS: dict[str, Artifact] = {
    "events_labeled.csv": Artifact("ingest", _EVENTS),
    "ingest_report.json": Artifact("ingest", keys=dict(
        n_lines=JSON_COUNT, n_events=JSON_COUNT, n_malformed=JSON_COUNT, header_skipped=JSON_BOOL,
        n_unlocatable_dropped=JSON_COUNT, n_labeled=JSON_COUNT, errors_first_10=[JSON_LIST])),
    "events_clean.csv": Artifact("clean", _EVENTS),
    "cleaning_report.csv": Artifact("clean", dict(country=NAME, source=TEXT, mass=COUNT, retained=BOOL)),
    "cleaning_stats.json": Artifact("clean", keys=dict(
        speed_removed=JSON_COUNT, users_before=JSON_COUNT, users_after=JSON_COUNT, events_before=JSON_COUNT,
        events_after=JSON_COUNT, user_fraction=JSON_NUMBER, event_fraction=JSON_NUMBER)),
    "profiles.csv": Artifact("profile", dict(
        user_id=NAME, residence=NAME, total_events=COUNT, distinct_countries=COUNT)),
    # A census may give a population of 0 or below, and no population or GDP (an empty cell).
    "country_stats.csv": Artifact("profile", dict(
        code=NAME, residents=COUNT, population=INTEGER.or_empty(), penetration=NONNEGATIVE, included=BOOL,
        gdp_per_capita=NUMBER.or_empty(), reason=TEXT)),
    "mobility_profiles.csv": Artifact("metrics", dict(
        code=NAME, n_residents=COUNT, mobility_rate=NONNEGATIVE, mean_radius_km=NONNEGATIVE, countries_visited=COUNT)),
    "daily_outbound.csv": Artifact("metrics", _DAILY),
    "daily_inbound.csv": Artifact("metrics", _DAILY),
    "displacements.csv": Artifact("metrics", _KM),
    "gyration.csv": Artifact("metrics", _KM),
    "edges_raw.csv": Artifact("network", _RAW_FLOW),
    "edges.csv": Artifact("network", _FLOW),
    "balances.csv": Artifact("network", dict(code=NAME, inflow=NONNEGATIVE, outflow=NONNEGATIVE, balance=NUMBER)),
    "top_flows.csv": Artifact("network", dict(rank=COUNT, **_FLOW)),
    "communities.csv": Artifact("communities", dict(country=NAME)),
    "communities_report.json": Artifact("communities", keys=dict(
        q_per_level=[JSON_NUMBER], communities_per_level=[JSON_COUNT], parents_per_level=[JSON_OBJECT])),
    "gravity_fit.json": Artifact("fit-gravity", keys=dict(
        logA=JSON_NUMBER, alpha=JSON_NUMBER, beta=JSON_NUMBER, gamma=JSON_NUMBER, r2=JSON_NUMBER, n_pairs=JSON_COUNT,
        n_zero_excluded=JSON_COUNT, n_short_excluded=JSON_COUNT, n_missing_distance=JSON_COUNT), legs=True),
    "powerlaw_fit.json": Artifact("fit-powerlaw", keys=dict(
        exponent=JSON_NUMBER, xmin=JSON_NUMBER, n_tail=JSON_COUNT, stderr=JSON_NUMBER,
        binned_check=dict(exponent=JSON_NUMBER, intercept=JSON_NUMBER, r2=JSON_NUMBER)), legs=True),
    "validate.json": Artifact("validate", keys=dict(r2=JSON_NUMBER, matched_countries=JSON_COUNT), legs=True),
    "report.txt": Artifact("report"),
}


class Workspace:
    """One invocation's work directory, and the values its stages hand on.

    Artifacts are read and written through ARTIFACTS. Values that an earlier
    stage of this process produced are in `held` and returned by `load`;
    without one, `load` derives the value from the artifacts (_LOADERS).
    """

    def __init__(self, config: dict[str, Any]):
        self.config = config
        self.held: dict[str, Any] = {}

    def path(self, name: str) -> str:
        """Where artifact `name` is written; creates the work directory."""
        workdir = self.config["paths"]["workdir"]
        os.makedirs(workdir, exist_ok=True)
        return os.path.join(workdir, name)

    def artifact(self, name: str) -> str:
        """Path of an artifact an earlier stage must have written."""
        path = os.path.join(self.config["paths"]["workdir"], name)
        if not os.path.exists(path):
            raise StageOrderError(f"missing artifact {path}; run the {ARTIFACTS[name].stage!r} stage first")
        return path

    def columns(self, name: str) -> dict[str, tables.Kind]:
        """The declared columns of CSV artifact `name`; communities.csv's end in one per configured partition level."""
        levels = self.config["communities"]["max_levels"] if name == "communities.csv" else 0
        return {**ARTIFACTS[name].header, **{f"level{k}": COUNT for k in range(1, levels + 1)}}

    def read_rows(self, name: str) -> dict[str, list[Any]]:
        return tables.read_rows(self.artifact(name), self.columns(name))

    def write_table(self, name: str, columns: dict[str, list[Any]] | dict[str, tables.Column]) -> None:
        """Write CSV artifact `name` from its columns, the declared ones in order; ValueError for any other names."""
        header = list(self.columns(name))
        if list(columns) != header:
            raise ValueError(f"{name}: columns {list(columns)} are not the declared {header}")
        values = list(columns.values())
        if all(isinstance(column, list) for column in values):
            tables.write_rows(self.path(name), header, zip(*values, strict=True))
        else:
            tables.write_blocks(self.path(name), header, tables.csv_blocks(values))

    def write_json(self, name: str, doc: dict[str, Any]) -> None:
        """Write JSON artifact `name`; ValueError unless it holds what read_json checks, and each of its objects
        the declared keys alone, in order."""
        _checked(f"{name}: ", doc, ARTIFACTS[name].json_keys(doc), exact=True)
        tables.write_json(self.path(name), doc)

    def read_json(self, name: str) -> dict[str, Any]:
        """JSON artifact `name`, each declared key checked (_checked)."""
        doc = tables.read_json(self.artifact(name))
        return _checked(f"{name}: ", doc, ARTIFACTS[name].json_keys(doc))

    def load(self, name: str) -> Any:
        """A held value, or one derived from the artifacts; an event artifact reads as an EventTable."""
        if name not in self.held:
            self.held[name] = _LOADERS[name](self) if name in _LOADERS else tables.read_events(self.artifact(name))
        return self.held[name]

    def take(self, name: str) -> Any:
        """`load`, and stop holding the value: no later stage of `run` needs it."""
        value = self.load(name)
        del self.held[name]
        return value


def _checked(where: str, doc: dict[str, Any], keys: dict[str, Any], exact: bool = False) -> dict[str, Any]:
    """`doc`, if it holds each of `keys` as its kind declares: a tables.Kind; [kind], a list of values of that kind;
    or a dict of keys, an object holding them or a leg's {"error": text}. With `exact`, it and each of its objects
    hold the declared keys alone, in order. Otherwise ValueError naming `where` and the key."""
    if exact and list(doc) != list(keys):
        raise ValueError(f"{where}keys {list(doc)} are not the declared {list(keys)}")
    for key, kind in keys.items():
        if key not in doc:
            raise ValueError(f"{where}{key} is missing")
        value = doc[key]
        shape = JSON_LIST if isinstance(kind, list) else JSON_OBJECT if isinstance(kind, dict) else kind
        if shape.values([value]) is None:
            raise ValueError(f"{where}{key} is {json.dumps(value)}, not {shape.what}")
        if isinstance(kind, list):
            items = {f"{key}[{i}]": item for i, item in enumerate(value)}
            _checked(where, items, dict.fromkeys(items, kind[0]))
        elif isinstance(kind, dict):
            _checked(f"{where}{key}: ", value, {"error": JSON_TEXT} if "error" in value else kind, exact)
    return doc


def _trajectories(events: ingest_mod.EventTable) -> ingest_mod.EventTable:
    """The events in trajectory order, sorted in place: the order the per-user passes take."""
    events.select(ingest_mod.build_trajectories(events))
    return events


_LOADERS: dict[str, Callable[[Workspace], Any]] = {
    # clean writes its events in trajectory order; a hand-made file is sorted here, once.
    "events_clean.csv": lambda ws: _trajectories(tables.read_events(ws.artifact("events_clean.csv"))),
    "profiles": lambda ws: residence_mod.build_profiles(ws.load("events_clean.csv")),
    "displacements.csv": lambda ws: np.array(ws.read_rows("displacements.csv")["km"]),
    "gyration.csv": lambda ws: np.array(ws.read_rows("gyration.csv")["km"]),
}


def _external(config: dict[str, Any], key: str, required: bool) -> str | None:
    path = config["paths"][key]
    if not path:
        if required:
            raise FileNotFoundError(f"config paths.{key} is not set but this stage needs it")
        return None
    if not os.path.isfile(path):
        raise FileNotFoundError(f"input file not found or not a regular file: {path} (config paths.{key})")
    return path


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_ingest(ws: Workspace) -> None:
    with open(_external(ws.config, "events", required=True), "rb") as fh:
        report = ingest_mod.parse_events(fh)
    boundaries_path = _external(ws.config, "boundaries", required=False)
    index = None
    if boundaries_path:
        index = ingest_mod.BoundaryIndex(ingest_mod.load_boundaries(boundaries_path))
    n_events = len(report.events)  # before labeling drops the unlocatable rows from the table
    labeled, dropped = ingest_mod.label_events(report.events, index)
    tables.write_events(ws.path("events_labeled.csv"), labeled)
    ws.held["events_labeled.csv"] = labeled
    ws.write_json("ingest_report.json", {
        "n_lines": report.n_lines,
        "n_events": n_events,
        "n_malformed": report.n_malformed,
        "header_skipped": report.header_skipped,
        "n_unlocatable_dropped": dropped,
        "n_labeled": len(labeled),
        "errors_first_10": [[lineno, reason] for lineno, reason in report.errors],
    })


def stage_clean(ws: Workspace) -> None:
    settings = ws.config["clean"]
    events = ws.take("events_labeled.csv")
    n_labeled = len(events)
    order = ingest_mod.build_trajectories(events)
    events.select(order)  # in place: this stage took the only reference
    keep, speed_removed = clean_mod.speed_filter(events, settings["max_speed_kmh"])
    order = ingest_mod.compress(order, keep)
    events.select(keep)
    retained, keep, stats = clean_mod.source_popularity_filter(events, settings["coverage"], settings["weight_mode"])
    order = ingest_mod.compress(order, keep)
    events.select(keep)
    # The cleaned events are labeled rows in trajectory order: copy their lines, formatted once, from the
    # labeled file.
    labeled_path = ws.artifact("events_labeled.csv")
    ends = tables.line_ends(labeled_path)
    if len(ends) != n_labeled + 1:
        raise ValueError(f"{labeled_path}: {len(ends) - 1} lines after the header, but {n_labeled} events")
    tables.write_events(ws.path("events_clean.csv"), events, tables.EventLines(labeled_path, ends, order))
    ws.held["events_clean.csv"] = events
    ranked = [(country, source, mass) for country, ranking in stats.rankings.items() for source, mass in ranking]
    ws.write_table("cleaning_report.csv", dict(
        country=[c for c, _, _ in ranked], source=[s for _, s, _ in ranked], mass=[m for _, _, m in ranked],
        retained=[s in retained[c] for c, s, _ in ranked]))
    ws.write_json("cleaning_stats.json", {key: speed_removed if key == "speed_removed" else getattr(stats, key)
                                          for key in ARTIFACTS["cleaning_stats.json"].keys})


def stage_profile(ws: Workspace) -> None:
    profiles = ws.load("profiles")
    census_path = _external(ws.config, "census", required=False)
    census: dict[str, int] = {}
    gdp: dict[str, float] = {}
    if census_path:
        census, gdp = tables.read_census(census_path)
    settings = ws.config["residence"]
    stats = residence_mod.compute_country_stats(profiles, census, gdp, settings["min_penetration"],
                                                settings["min_residents"])
    has = np.flatnonzero(profiles.residence >= 0)  # the users with an event, in id order
    ws.write_table("profiles.csv", dict(
        user_id=(profiles.users, has), residence=(profiles.countries, profiles.residence[has]),
        total_events=profiles.total_events[has], distinct_countries=profiles.distinct_countries[has]))
    ws.write_table("country_stats.csv", stats)


def stage_metrics(ws: Workspace) -> None:
    profiles = ws.load("profiles")  # first: without held profiles, this loads the events taken below
    events = ws.take("events_clean.csv")
    radii = metrics_mod.user_gyration_radii(events)
    mobility = metrics_mod.build_mobility_profiles(profiles, radii, ws.config["metrics"]["gyration_over"])
    ws.write_table("mobility_profiles.csv", mobility)
    countries, outbound, inbound = metrics_mod.daily_abroad_series(profiles, events, year=ws.config["year"])
    rows, days = np.divmod(np.arange(outbound.size), outbound.shape[1])  # the country and day of each count
    for direction, counts in (("outbound", outbound), ("inbound", inbound)):
        normalized = 100.0 * counts / np.maximum(counts.max(axis=1, keepdims=True), 1)  # an all-zero row reads 0.0
        ws.write_table(f"daily_{direction}.csv",
                       dict(code=(countries, rows), day=days, count=counts.ravel(), normalized=normalized.ravel()))
    users, km = metrics_mod.displacements(events)
    ws.write_table("displacements.csv", dict(user_id=(events.users, users), km=km))
    has = np.flatnonzero(profiles.residence >= 0)  # the users with an event, in id order
    ws.write_table("gyration.csv", dict(user_id=(events.users, has), km=radii[has]))
    ws.held.update({"displacements.csv": km, "gyration.csv": radii[has]})


def _edges(net: network_mod.FlowNetwork, rows: Any = slice(None)) -> dict[str, list[Any]]:
    """The columns of edges.csv for the network's edge rows `rows`, or of edges_raw.csv for a raw network."""
    origin, destination = (list(map(net.countries.__getitem__, column.tolist())) for column in net.edges[rows].T)
    columns = dict(origin=origin, destination=destination, raw_weight=net.raw_weight[rows].tolist())
    return columns if net.est_weight is None else dict(columns, est_weight=net.est_weight[rows].tolist())


def stage_network(ws: Workspace) -> None:
    raw_net = network_mod.build_flow_network(ws.take("profiles"))
    stats = ws.read_rows("country_stats.csv")
    ws.write_table("edges_raw.csv", _edges(raw_net))
    settings = ws.config["network"]
    net = network_mod.normalize_and_filter(raw_net, stats, settings["min_outgoing"], settings["min_penetration"])
    ws.write_table("edges.csv", _edges(net))
    inflow, outflow = network_mod.inflow_outflow_balance(net)
    codes = list(map(net.countries.__getitem__, net.nodes.tolist()))
    ws.write_table("balances.csv", dict(
        code=codes, inflow=inflow.tolist(), outflow=outflow.tolist(), balance=(inflow - outflow).tolist()))
    top = network_mod.top_k_flows(net, k=settings["top_k"])
    ws.write_table("top_flows.csv", dict(rank=list(range(1, len(top) + 1)), **_edges(net, top)))


def _flow_edges(ws: Workspace) -> dict[str, dict[tuple[str, str], float]]:
    """Edge weights by kind ("raw" or "est") from edges.csv."""
    edges = ws.read_rows("edges.csv")
    pairs = list(zip(edges["origin"], edges["destination"]))
    return {kind: dict(zip(pairs, edges[f"{kind}_weight"])) for kind in ("raw", "est")}


def stage_communities(ws: Workspace) -> None:
    settings = ws.config["communities"]
    weights, nodes = _flow_edges(ws), ws.read_rows("balances.csv")["code"]
    if not nodes:
        raise ValueError("empty network: nothing to partition")
    hierarchy = community_mod.hierarchical_partition(weights[settings["weights"]], max_levels=settings["max_levels"],
                                                     seed=ws.config["seed"], restarts=settings["restarts"], nodes=nodes)
    codes = sorted(nodes)
    levels = {f"level{k}": [level.assignment[code] for code in codes] for k, level in enumerate(hierarchy.levels, 1)}
    ws.write_table("communities.csv", {"country": codes, **levels})
    ws.write_json("communities_report.json", {
        "q_per_level": [level.q for level in hierarchy.levels],
        "communities_per_level": [level.n_communities for level in hierarchy.levels],
        "parents_per_level": [{str(child): parent for child, parent in sorted(parents.items())}
                              for parents in hierarchy.parents],
    })


def _leg(fit: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """fit(), or {"error": why} if it raises ValueError. A leg can be unfittable on a small corpus (e.g. identical
    resident counts make ln p collinear with the intercept): its report says why, and the run goes on."""
    try:
        return fit()
    except ValueError as exc:
        return {"error": str(exc)}


def stage_fit_gravity(ws: Workspace) -> None:
    stats = ws.read_rows("country_stats.csv")
    distances = models_mod.capital_distances(
        tables.read_capitals(_external(ws.config, "capitals", required=True))
    )
    weights = _flow_edges(ws)
    population, residents = (dict(zip(stats["code"], stats[column])) for column in ("population", "residents"))
    census_pops = {c: float(p) for c, p in population.items() if p and p > 0}
    platform_pops = {c: float(r) for c, r in residents.items() if r > 0}
    legs = {"est_census": (weights["est"], census_pops), "raw_platform": (weights["raw"], platform_pops)}
    min_km = ws.config["fit"]["min_distance_km"]
    ws.write_json("gravity_fit.json", {name: _leg(lambda: dataclasses.asdict(models_mod.fit_gravity(
        flows, pops, distances, min_distance_km=min_km))) for name, (flows, pops) in legs.items()})


def stage_fit_powerlaw(ws: Workspace) -> None:
    xmin, binned = ws.config["fit"]["powerlaw_xmin_km"], ARTIFACTS["powerlaw_fit.json"].keys["binned_check"]
    report: dict[str, Any] = {}
    for name in ("displacements", "gyration"):
        km = ws.take(f"{name}.csv")  # outside the leg: a table that cannot be read is no leg's error
        report[name] = _leg(lambda: dataclasses.asdict(models_mod.fit_power_law(km, xmin)))
        if "error" not in report[name]:  # the binned check of the tail, or why it failed
            report[name]["binned_check"] = _leg(
                lambda: dict(zip(binned, models_mod.binned_powerlaw_check(km[km >= xmin]))))
    ws.write_json("powerlaw_fit.json", report)


def cmd_validate(ws: Workspace) -> None:
    reference_path = _external(ws.config, "reference", required=True)
    balances = ws.read_rows("balances.csv")
    inflows = dict(zip(balances["code"], balances["inflow"]))
    rows = tables.code_rows(reference_path)  # read once; a table that cannot be read is no one leg's error
    legs, keys = {"arrivals": 1, "receipts": 2}, ARTIFACTS["validate.json"].keys  # each leg's reference column
    ws.write_json("validate.json", {name: _leg(lambda: dict(zip(keys, models_mod.validate_external(
        inflows, tables.reference_column(reference_path, rows, column))))) for name, column in legs.items()})


def cmd_synth(config: dict[str, Any], out_dir: str) -> None:
    from . import synth as synth_mod  # here, not at the top: no pipeline stage imports the generator

    os.makedirs(out_dir, exist_ok=True)
    section = config["synth"]
    a, alpha, beta, gamma = section["gravity"]
    world = synth_mod.make_world(
        section["n_countries"],
        seed=config["seed"],
        A=a,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        n_blocks=section["n_blocks"],
        block_boost=section["block_boost"],
    )
    truth, blocks = synth_mod.event_blocks(
        world,
        users_per_country=section["users_per_country"],
        events_per_user=section["events_per_user"],
        trip_rate=section["trip_rate"],
        bot_fraction=section["bot_fraction"],
        year=config["year"],
    )
    events_path = os.path.join(out_dir, "events.csv")
    tables.write_blocks(events_path, tables.EVENT_HEADER[:5], synth_mod.event_csv(blocks))  # no country column
    boundaries = synth_mod.world_boundaries(world)
    features = []
    for b in boundaries:
        features.append(
            {
                "type": "Feature",
                "properties": {"code": b.code},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[lon, lat] for lon, lat in ring] for ring in b.polygons[0]],
                },
            }
        )
    boundaries_path = os.path.join(out_dir, "boundaries.geojson")
    tables.write_json(boundaries_path, {"type": "FeatureCollection", "features": features})
    census_path, capitals_path = os.path.join(out_dir, "census.csv"), os.path.join(out_dir, "capitals.csv")
    countries = sorted(world.countries, key=lambda c: c.code)
    tables.write_rows(census_path, ["code", "population"], ([c.code, c.population] for c in countries))
    tables.write_rows(capitals_path, ["code", "lat", "lon"], ([c.code, *c.capital] for c in countries))
    truth_doc = dataclasses.asdict(truth)
    truth_doc["bots"] = sorted(truth.bots)
    truth_doc["realized_edges"] = {f"{o}:{d}": n for (o, d), n in truth.realized_edges.items()}
    truth_doc["world"] = dataclasses.asdict(world)
    tables.write_json(os.path.join(out_dir, "truth.json"), truth_doc)
    pipeline_config = copy.deepcopy(config)
    pipeline_config["paths"] = {
        "workdir": os.path.join(out_dir, "artifacts"),
        "events": events_path,
        "boundaries": boundaries_path,
        "census": census_path,
        "capitals": capitals_path,
        "reference": "",
    }
    # Desk-scale corpus: the full-scale inclusion thresholds
    # (10k residents, 500 mobile, 0.05% penetration) would empty a
    # few-thousand-user world, so the gates are opened wide here.
    pipeline_config["residence"] = {"min_residents": 1, "min_penetration": 0.0}
    pipeline_config["network"].update(min_outgoing=1, min_penetration=0.0)
    tables.write_json(os.path.join(out_dir, "config.json"), pipeline_config)


def cmd_run(ws: Workspace, args: argparse.Namespace) -> None:
    for command in COMMANDS.values():
        if command.stage:
            command.handler(ws, args)


# Row counts that must balance: each total, in ingest_report.json, is the sum of its parts, in the file named.
_CONSERVATION = [
    ("n_lines", "ingest_report.json", ("n_events", "n_malformed", "header_skipped")),
    ("n_events", "ingest_report.json", ("n_labeled", "n_unlocatable_dropped")),
    ("n_labeled", "cleaning_stats.json", ("speed_removed", "events_before")),
]


def cmd_report(ws: Workspace) -> str:
    lines = ["PIPELINE REPORT", ""]
    add = lines.append
    docs = {name: ws.read_json(name) for name in ("ingest_report.json", "cleaning_stats.json")}
    for total, name, parts in _CONSERVATION:  # exit 6 on the first identity that does not hold
        whole, values = docs["ingest_report.json"][total], [docs[name][part] for part in parts]
        if whole != sum(values):
            raise ValueError(f"{total} = {' + '.join(parts)} does not hold: {whole} != {sum(values)}")
    add("[ingest_report.json] lines={n_lines} events={n_events} malformed={n_malformed} "
        "unlocatable={n_unlocatable_dropped}".format_map(docs["ingest_report.json"]))
    add("[cleaning_stats.json] speed_removed={speed_removed} user_survival={user_fraction:.6g} "
        "event_survival={event_fraction:.6g}".format_map(docs["cleaning_stats.json"]))
    included = ws.read_rows("country_stats.csv")["included"]
    add(f"[country_stats.csv] countries={len(included)} included={sum(included)}")
    rates = ws.read_rows("mobility_profiles.csv")["mobility_rate"]
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    add(f"[mobility_profiles.csv] countries={len(rates)} mean_mobility_rate={mean_rate:.6g}")
    add(f"[edges.csv] edges={len(ws.read_rows('edges.csv')['origin'])}")
    top = ws.read_rows("top_flows.csv")
    if top["rank"]:
        add(f"[top_flows.csv] top flow {top['origin'][0]}->{top['destination'][0]} est={top['est_weight'][0]:.6g}")
    communities = ws.read_json("communities_report.json")
    qs, ns = (" ".join(format(value, spec) for value in communities[key])
              for key, spec in (("q_per_level", ".6g"), ("communities_per_level", "")))
    add(f"[communities_report.json] q_per_level=[{qs}] communities_per_level=[{ns}]")
    # Fit and validation reports hold one entry per leg, each a result or an error.
    entries = [
        ("gravity_fit.json", "alpha={alpha:.6g} beta={beta:.6g} gamma={gamma:.6g} r2={r2:.6g} n_pairs={n_pairs}"),
        ("powerlaw_fit.json", "exponent={exponent:.6g} stderr={stderr:.6g} n_tail={n_tail}"),
    ]
    if os.path.exists(os.path.join(ws.config["paths"]["workdir"], "validate.json")):
        entries.append(("validate.json", "r2={r2:.6g} matched={matched_countries}"))
    for name, template in entries:
        for leg, entry in sorted(ws.read_json(name).items()):
            add(f"[{name}:{leg}] " + ("error={error}" if "error" in entry else template).format_map(entry))
    text = "\n".join(lines) + "\n"
    with tables.replacing(ws.path("report.txt")) as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    help: str
    handler: Callable[[Workspace, argparse.Namespace], object]
    stage: bool = False  # `run` executes the stages in table order


# The handlers name the functions they call, so the lookup happens at call
# time and a wrapper installed on a module attribute such as `stage_ingest`
# sees every call.
COMMANDS: dict[str, Command] = {
    "ingest": Command("parse events and label them with countries", lambda ws, _: stage_ingest(ws), True),
    "clean": Command("apply the speed filter and the source-popularity filter", lambda ws, _: stage_clean(ws), True),
    "profile": Command("assign residences and compute country statistics", lambda ws, _: stage_profile(ws), True),
    "metrics": Command(
        "mobility rates, gyration radii, displacement and daily series", lambda ws, _: stage_metrics(ws), True
    ),
    "network": Command(
        "build, filter, and normalize the country flow network", lambda ws, _: stage_network(ws), True
    ),
    "communities": Command(
        "hierarchical modularity partitioning of the flow network", lambda ws, _: stage_communities(ws), True
    ),
    "fit-gravity": Command("fit the gravity model to the flow network", lambda ws, _: stage_fit_gravity(ws), True),
    "fit-powerlaw": Command(
        "fit power laws to displacements and gyration radii", lambda ws, _: stage_fit_powerlaw(ws), True
    ),
    "validate": Command("correlate estimated inflows against a reference table", lambda ws, _: cmd_validate(ws)),
    "synth": Command(
        "generate a synthetic world with ground truth", lambda ws, args: cmd_synth(ws.config, args.out)
    ),
    "run": Command("run every pipeline stage in order", lambda ws, args: cmd_run(ws, args)),
    "report": Command("print an aggregate summary of all artifacts", lambda ws, _: print(cmd_report(ws), end="")),
}

_EPILOG = """exit codes:
  0  success
  2  usage error
  3  malformed config (bad JSON, unknown key, wrong type or range)
  4  missing input file (events, boundaries, census, capitals, reference, config),
     or a path that cannot be read or written
  5  stage-order violation (needed artifact not produced yet)
  6  data error (malformed rows, degenerate fits, empty networks, ...)

config keys can be overridden via environment variables with the GEOFLOW_
prefix: GEOFLOW_SEED=7, GEOFLOW_CLEAN_COVERAGE=0.9, GEOFLOW_NETWORK_TOP_K=10.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoflow",
        description="Country-level mobility mining over geo-located event streams.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", "-c", default=None, help="JSON config file")
        if name == "synth":
            p.add_argument("--out", default="synthetic", help="output directory for the synthetic world")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command].handler(Workspace(load_config(args.config)), args)
    except ConfigError as exc:
        print(f"geoflow: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageOrderError as exc:
        print(f"geoflow: stage order: {exc}", file=sys.stderr)
        return EXIT_STAGE_ORDER
    except OSError as exc:  # a missing input, or a path that cannot be read or written
        print(f"geoflow: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ValueError, KeyError) as exc:
        print(f"geoflow: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
