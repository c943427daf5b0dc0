"""Command-line pipeline: stages, artifacts, exit codes, overrides."""

import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import geoflow
from geoflow import cli as cli_mod
from geoflow import config as config_mod
from geoflow import community, ingest, metrics, residence, tables
from geoflow.cli import main
from geoflow.config import load_config
from geoflow.synth import event_lines, generate_events, make_world
from geoflow.tables import read_json
from helpers import stats_by_code

SYNTH_SETTINGS = {
    "seed": 1,
    "synth": {
        "n_countries": 4,
        "users_per_country": 30,
        "events_per_user": 12,
        "trip_rate": 0.6,
        "n_blocks": 2,
        "block_boost": 2.0,
    },
}

RUN_ARTIFACTS = [
    "events_labeled.csv",
    "ingest_report.json",
    "events_clean.csv",
    "cleaning_report.csv",
    "cleaning_stats.json",
    "profiles.csv",
    "country_stats.csv",
    "mobility_profiles.csv",
    "daily_outbound.csv",
    "daily_inbound.csv",
    "displacements.csv",
    "gyration.csv",
    "edges_raw.csv",
    "edges.csv",
    "balances.csv",
    "top_flows.csv",
    "communities.csv",
    "communities_report.json",
    "gravity_fit.json",
    "powerlaw_fit.json",
]


STAGES = ("ingest", "clean", "profile", "metrics", "network", "communities", "fit-gravity", "fit-powerlaw")

# sha256 of each file `geoflow synth` writes for the default config, with the
# --out directory in config.json read as "<out>".
DEFAULT_WORLD_SHA256 = {
    "events.csv": "2b0c5f62988b9026396ae8bf36fa59d018c854d216a9eab921442fa59f603fb3",
    "boundaries.geojson": "437d5e4e94a5f5ef0d8050c9e12d82bc267afcb2c65cf23c620db4822833979e",
    "census.csv": "6eacda770b1ee489042995b577177f288fed668bc06db6e632131188942e2d1f",
    "capitals.csv": "9654c0f52d1907fb904364deb8d1ee0eda4b46bcb283c86b0629bb63d3bdeafe",
    "truth.json": "424d62cf25d3972066280973d1b5e7b0f7dbf25189bda26aa0db9097bbc4a851",
    "config.json": "aa73e57d028260b1a1836ca010d5df049369d48a09b85fadabb0e4b467ba16c4",
}


def cli(*argv, env=None):
    """Run the entry point with a scrubbed GEOFLOW_ environment."""
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("GEOFLOW_")}
    os.environ.update(env or {})
    try:
        return main(list(argv))
    finally:
        for k in env or {}:
            os.environ.pop(k, None)
        os.environ.update(saved)


def build_world(base, name):
    """Synthesize a small world under base/name and return its directory."""
    config_path = base / f"{name}_synth.json"
    config_path.write_text(json.dumps(SYNTH_SETTINGS))
    world = base / name
    assert cli("synth", "--config", str(config_path), "--out", str(world)) == 0
    return world


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One `run` of a small world, shared by the module: a test that writes artifacts works on a copy of them."""
    base = tmp_path_factory.mktemp("cli")
    world = build_world(base, "world")
    config = str(world / "config.json")
    assert cli("run", "--config", config) == 0
    yield world, config
    assert sorted(os.listdir(world / "artifacts")) == sorted(RUN_ARTIFACTS)


def copied(pipeline, tmp_path):
    """A copy of the pipeline's world, whose config.json names the copy's artifacts as its work directory."""
    world, _ = pipeline
    shutil.copytree(world, tmp_path / "world")
    settings = json.loads((tmp_path / "world" / "config.json").read_text())
    settings["paths"]["workdir"] = str(tmp_path / "world" / "artifacts")
    (tmp_path / "world" / "config.json").write_text(json.dumps(settings))
    return tmp_path / "world", str(tmp_path / "world" / "config.json")


# ---------------------------------------------------------------- happy path


def test_synth_writes_world_inputs(pipeline):
    world, _ = pipeline
    for name in ("events.csv", "boundaries.geojson", "census.csv", "capitals.csv", "truth.json", "config.json"):
        assert (world / name).is_file(), name


def test_synth_writes_the_default_world_byte_for_byte(tmp_path):
    out = tmp_path / "world"
    assert cli("synth", "--out", str(out)) == 0
    for name, digest in DEFAULT_WORLD_SHA256.items():
        data = (out / name).read_bytes()
        if name == "config.json":
            data = data.replace(json.dumps(str(out))[1:-1].encode(), b"<out>")
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_synth_writes_the_event_lines_of_generate_events(tmp_path):
    # 1,500 users: the writer's blocks split the users of a country.
    env = {
        "GEOFLOW_SEED": "4",
        "GEOFLOW_YEAR": "2013",
        "GEOFLOW_SYNTH_N_COUNTRIES": "5",
        "GEOFLOW_SYNTH_USERS_PER_COUNTRY": "300",
        "GEOFLOW_SYNTH_EVENTS_PER_USER": "3",
        "GEOFLOW_SYNTH_TRIP_RATE": "0.9",
        "GEOFLOW_SYNTH_BOT_FRACTION": "0.1",
        "GEOFLOW_SYNTH_N_BLOCKS": "2",
        "GEOFLOW_SYNTH_BLOCK_BOOST": "3.0",
    }
    out = tmp_path / "world"
    assert cli("synth", "--out", str(out), env=env) == 0
    world = make_world(5, seed=4, n_blocks=2, block_boost=3.0)
    events, truth = generate_events(world, 300, 3, trip_rate=0.9, bot_fraction=0.1, year=2013)
    assert (out / "events.csv").read_text() == "\n".join(event_lines(events)) + "\n"
    written = read_json(str(out / "truth.json"))
    assert written["residences"] == truth.residences
    assert written["bots"] == sorted(truth.bots)
    assert written["realized_edges"] == {f"{o}:{d}": n for (o, d), n in truth.realized_edges.items()}
    assert truth.realized_edges


def test_synth_events_that_do_not_fit_the_year_leave_no_event_file(tmp_path, capsys):
    out = tmp_path / "world"
    env = {"GEOFLOW_SYNTH_N_COUNTRIES": "1", "GEOFLOW_SYNTH_USERS_PER_COUNTRY": "1",
           "GEOFLOW_SYNTH_EVENTS_PER_USER": "9000"}
    assert cli("synth", "--out", str(out), env=env) == 6
    assert "fit inside the year" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_produces_all_artifacts(pipeline):
    world, _ = pipeline
    for name in RUN_ARTIFACTS:
        assert (world / "artifacts" / name).is_file(), name


def test_ingest_report_accounts_for_every_line(pipeline):
    world, _ = pipeline
    report = read_json(str(world / "artifacts" / "ingest_report.json"))
    n_lines = sum(1 for _ in open(world / "events.csv", encoding="utf-8"))
    assert report["n_lines"] == n_lines
    assert report["n_events"] + report["n_malformed"] + 1 == n_lines  # header line
    assert report["n_malformed"] == 0
    assert report["n_unlocatable_dropped"] == 0
    assert report["n_labeled"] == report["n_events"]


def test_ingest_report_counts_the_unlocatable_events(tmp_path):
    """n_events counts the parsed events, the unlocatable ones that labeling drops from the table among them."""
    world = build_world(tmp_path, "world")
    lines = (world / "events.csv").read_text().splitlines()
    user, ts, *_ = lines[1].split(",")
    (world / "events.csv").write_text("\n".join(lines + [f"{user},{ts},-89.5,{lon},web" for lon in (0, 90)]) + "\n")
    assert cli("ingest", "--config", str(world / "config.json")) == 0
    report = read_json(str(world / "artifacts" / "ingest_report.json"))
    assert report["n_events"] == len(lines) + 1 and report["n_unlocatable_dropped"] == 2
    assert report["n_labeled"] == len(lines) - 1


def test_report_summarizes_artifacts(pipeline, tmp_path, capsys):
    _, config = copied(pipeline, tmp_path)
    assert cli("report", "--config", config) == 0
    out = capsys.readouterr().out
    for marker in (
        "[ingest_report.json]",
        "[cleaning_stats.json]",
        "[mobility_profiles.csv]",
        "[edges.csv]",
        "[communities_report.json]",
        "[powerlaw_fit.json:displacements]",
    ):
        assert marker in out, marker


def test_report_file_matches_stdout(pipeline, tmp_path, capsys):
    world, config = copied(pipeline, tmp_path)
    assert cli("report", "--config", config) == 0
    out = capsys.readouterr().out
    assert (world / "artifacts" / "report.txt").read_text(encoding="utf-8") == out


@pytest.mark.parametrize("name, key, delta", [
    ("ingest_report.json", "n_lines", 1),
    ("ingest_report.json", "n_unlocatable_dropped", 1),
    ("cleaning_stats.json", "speed_removed", 1),
])
def test_report_exits_six_on_counts_that_do_not_balance(pipeline, tmp_path, capsys, name, key, delta):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    doc = read_json(str(workdir / name))
    doc[key] += delta
    (workdir / name).write_text(json.dumps(doc))
    (workdir / "report.txt").unlink(missing_ok=True)
    assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    err = capsys.readouterr().err
    assert err.startswith("geoflow: data error: ") and key in err and "does not hold" in err
    assert "Traceback" not in err
    assert not (workdir / "report.txt").exists()


@pytest.mark.parametrize(
    "name, edit, named",
    [
        ("ingest_report.json", lambda text: "[]", "not a JSON object"),
        ("ingest_report.json", lambda text: "[" * 100_000 + "]" * 100_000, "recursion"),
        ("gravity_fit.json", lambda text: json.dumps({**json.loads(text), "est_census": 5}), "est_census"),
    ],
    ids=["array", "nested-100000-deep", "leg-not-an-object"],
)
def test_report_exits_six_on_json_artifacts_edited_by_hand(pipeline, tmp_path, capsys, name, edit, named):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    (workdir / name).write_text(edit((workdir / name).read_text()))
    assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    err = capsys.readouterr().err
    assert err.startswith("geoflow: data error: ") and err.count("\n") == 1
    assert name in err and named in err


def _edited(key, value, leg=None):
    """An edit of a JSON artifact's text that sets `key`, in object `leg` if given, to `value`."""
    def edit(text):
        doc = json.loads(text)
        (doc[leg] if leg else doc)[key] = value
        return json.dumps(doc)
    return edit


@pytest.mark.parametrize(
    "name, edit, named",
    [
        ("gravity_fit.json", _edited("alpha", [1], "est_census"), "est_census: alpha is [1], not a number"),
        ("gravity_fit.json", _edited("n_pairs", 2.5, "est_census"), "est_census: n_pairs is 2.5, not a count"),
        ("powerlaw_fit.json", _edited("stderr", "0.1", "gyration"), 'gyration: stderr is "0.1", not a number'),
        ("cleaning_stats.json", _edited("event_fraction", None), "event_fraction is null, not a number"),
        ("cleaning_stats.json", _edited("user_fraction", True), "user_fraction is true, not a number"),
        ("communities_report.json", _edited("q_per_level", 5), "q_per_level is 5, not a list"),
        ("communities_report.json", _edited("q_per_level", [0.5, {}]), "q_per_level[1] is {}, not a number"),
        ("communities_report.json", _edited("communities_per_level", [2, 2.0]),
         "communities_per_level[1] is 2.0, not a count"),
    ],
    ids=["list-alpha", "float-count", "string-number", "null-number", "bool-number", "int-levels",
         "object-level", "float-level-count"],
)
def test_report_exits_six_on_values_of_the_wrong_type(pipeline, tmp_path, capsys, name, edit, named):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    (workdir / name).write_text(edit((workdir / name).read_text()))
    assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    err = capsys.readouterr().err
    assert err == f"geoflow: data error: {name}: {named}\n"


def _dropped(key, leg=None):
    """An edit of a JSON artifact's text that removes `key`, from object `leg` if given."""
    def edit(text):
        doc = json.loads(text)
        del (doc[leg] if leg else doc)[key]
        return json.dumps(doc)
    return edit


@pytest.mark.parametrize(
    "name, edit, named",
    [
        ("ingest_report.json", _dropped("n_lines"), "n_lines is missing"),
        ("cleaning_stats.json", _dropped("user_fraction"), "user_fraction is missing"),
        ("powerlaw_fit.json", _dropped("exponent", "displacements"), "displacements: exponent is missing"),
    ],
    ids=["ingest-count", "cleaning-fraction", "powerlaw-leg"],
)
def test_report_names_the_file_of_a_missing_key(pipeline, tmp_path, capsys, name, edit, named):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    (workdir / name).write_text(edit((workdir / name).read_text()))
    assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {name}: {named}\n"


JSON_ARTIFACTS = [name for name, artifact in cli_mod.ARTIFACTS.items() if artifact.keys is not None]


def _key_paths(keys, path=()):
    """(path, kind) of each declared JSON key, and then of the keys of each object it declares."""
    for key, kind in keys.items():
        yield (*path, key), kind
        if isinstance(kind, dict):
            yield from _key_paths(kind, (*path, key))


DECLARED_KEYS = [(name, path, kind)
                 for name in JSON_ARTIFACTS for path, kind in _key_paths(cli_mod.ARTIFACTS[name].keys)]


def _reference(balances, path, scale=1.0):
    """A reference table from balances.csv: arrivals 2 * inflow, receipts (0.5 * inflow + 10) * scale."""
    rows = [row.split(",") for row in balances.read_text().splitlines()[1:]]
    path.write_text("code,arrivals,receipts\n" + "".join(
        f"{code},{2.0 * float(inflow)!r},{scale * (0.5 * float(inflow) + 10.0)!r}\n" for code, inflow, *_ in rows))
    return path


@pytest.fixture(scope="module")
def validated(pipeline, tmp_path_factory):
    """A copy of the pipeline's artifacts with validate.json, against a reference scaled from its inflows."""
    world, config = pipeline
    workdir = tmp_path_factory.mktemp("validated") / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir),
           "GEOFLOW_PATHS_REFERENCE": str(_reference(workdir / "balances.csv", workdir.parent / "reference.csv"))}
    assert cli("validate", "--config", config, env=env) == 0
    return workdir, config


@pytest.mark.parametrize("name, path, kind", DECLARED_KEYS, ids=[f"{n}-{'.'.join(p)}" for n, p, _ in DECLARED_KEYS])
def test_report_exits_six_on_a_declared_json_value_of_another_type(validated, tmp_path, capsys, name, path, kind):
    source, config = validated
    workdir = tmp_path / "artifacts"
    shutil.copytree(source, workdir)
    doc = read_json(str(source / name))

    def parent(entry):
        """The object that holds the key in a leg (or the document), or None if it or an object on the way is an
        error."""
        for key in path[:-1]:
            entry = None if "error" in entry else entry[key]
        return None if "error" in entry else entry

    legs = [leg for leg in (list(doc) if cli_mod.ARTIFACTS[name].legs else [None]) if parent(doc[leg] if leg else doc)]
    assert legs, "no result to edit"
    what = "a list" if isinstance(kind, list) else "an object" if isinstance(kind, dict) else kind.what
    # (value, the key and value the error names, the kind it names)
    edits = [(value, f"{path[-1]} is {json.dumps(value)}", what)
             for value in (None, {} if isinstance(kind, list) else [])]
    if isinstance(kind, list):
        edits.append(([None], f"{path[-1]}[0] is null", kind[0].what))
    for leg in legs:
        for value, named, what in edits:
            edited = json.loads(json.dumps(doc))
            parent(edited[leg] if leg else edited)[path[-1]] = value
            (workdir / name).write_text(json.dumps(edited))
            assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
            where = ": ".join([name, *([leg] if leg else []), *path[:-1], named])
            assert capsys.readouterr().err == f"geoflow: data error: {where}, not {what}\n"


def _raw(key, text, leg=None, **also):
    """An edit of a JSON artifact's text that writes `text`, as it is, for `key` (in object `leg` if given), and
    adds `also`'s deltas to other keys of the same object."""
    def edit(doc_text):
        doc = json.loads(doc_text)
        entry = doc[leg] if leg else doc
        entry[key] = "@@"
        for other, delta in also.items():
            entry[other] += delta
        return json.dumps(doc).replace('"@@"', text)
    return edit


@pytest.mark.parametrize(
    "name, edit, named",
    [
        ("ingest_report.json", _raw("n_malformed", "-5", n_lines=-5), "n_malformed is -5, not a count"),
        ("cleaning_stats.json", _raw("speed_removed", "-1"), "speed_removed is -1, not a count"),
        ("gravity_fit.json", _raw("n_pairs", "-1", "est_census"), "est_census: n_pairs is -1, not a count"),
        ("communities_report.json", _raw("communities_per_level", "[2, -3]"),
         "communities_per_level[1] is -3, not a count"),
        ("ingest_report.json", _raw("n_malformed", "true", n_lines=1), "n_malformed is true, not a count"),
    ],
    ids=["malformed-balanced", "speed-removed", "leg-count", "level-count", "bool-balanced"],
)
def test_report_exits_six_on_a_count_that_is_negative_or_a_bool(pipeline, tmp_path, capsys, name, edit, named):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    (workdir / name).write_text(edit((workdir / name).read_text()))
    assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {name}: {named}\n"


@pytest.mark.parametrize(
    "name, edit, named",
    [
        ("gravity_fit.json", _raw("alpha", "NaN", "est_census"), "est_census: alpha is NaN"),
        ("gravity_fit.json", _raw("r2", "Infinity", "est_census"), "est_census: r2 is Infinity"),
        ("communities_report.json", _raw("q_per_level", "[-Infinity]"), "q_per_level[0] is -Infinity"),
        ("cleaning_stats.json", _raw("user_fraction", "1e400"), "user_fraction is Infinity"),
        ("powerlaw_fit.json", _raw("stderr", "-1e400", "gyration"), "gyration: stderr is -Infinity"),
        ("gravity_fit.json", _raw("alpha", "1" + "0" * 400, "est_census"), f"est_census: alpha is 1{'0' * 400}"),
    ],
    ids=["nan", "infinity", "minus-infinity-level", "1e400", "minus-1e400", "int-of-401-digits"],
)
def test_report_exits_six_on_a_number_that_is_not_finite(pipeline, tmp_path, capsys, name, edit, named):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    (workdir / name).write_text(edit((workdir / name).read_text()))
    assert cli("report", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {name}: {named}, not a number\n"


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
def test_validate_records_a_reference_too_large_for_the_r2_as_its_legs_error(pipeline, tmp_path, capsys):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    reference = _reference(workdir / "balances.csv", tmp_path / "reference.csv", scale=1e200)
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_REFERENCE": str(reference)}
    assert cli("validate", "--config", config, env=env) == 0
    report = read_json(str(workdir / "validate.json"))
    assert report["arrivals"]["r2"] == pytest.approx(1.0, abs=1e-9)
    assert list(report["receipts"]) == ["error"] and "would overflow the r2" in report["receipts"]["error"]
    assert cli("report", "--config", config, env=env) == 0
    out, err = capsys.readouterr()
    assert f"[validate.json:receipts] error={report['receipts']['error']}\n" in out and err == ""


def test_validate_against_scaled_reference(pipeline, tmp_path):
    world, config = copied(pipeline, tmp_path)
    rows = (world / "artifacts" / "balances.csv").read_text().splitlines()[1:]
    lines = ["code,arrivals,receipts"]
    for row in rows:
        code, inflow = row.split(",")[0], float(row.split(",")[1])
        lines.append(f"{code},{2.0 * inflow!r},{0.5 * inflow + 10.0!r}")
    reference = world / "reference.csv"
    reference.write_text("\n".join(lines) + "\n")
    settings = json.loads((world / "config.json").read_text())
    settings["paths"]["reference"] = str(reference)
    config2 = world / "config_ref.json"
    config2.write_text(json.dumps(settings))
    assert cli("validate", "--config", str(config2)) == 0
    report = read_json(str(world / "artifacts" / "validate.json"))
    assert report["arrivals"]["r2"] == pytest.approx(1.0, abs=1e-9)
    assert report["receipts"]["r2"] == pytest.approx(1.0, abs=1e-9)
    assert report["arrivals"]["matched_countries"] == len(rows)


def test_individual_stages_match_run(pipeline, tmp_path):
    run_world, _ = pipeline
    world = build_world(tmp_path, "world")
    config = str(world / "config.json")
    for stage in STAGES:
        assert cli(stage, "--config", config) == 0, stage
    for name in RUN_ARTIFACTS:
        ours = (world / "artifacts" / name).read_bytes()
        theirs = (run_world / "artifacts" / name).read_bytes()
        assert ours == theirs, name


def test_stages_match_run_on_a_census_of_nonpositive_populations(tmp_path):
    """profile writes a census population of 0 or -5 (with its reason), a negative GDP and empty GDP cells into
    country_stats.csv, and network a negative balance: each stage reads them back as `run` hands them on."""
    world = build_world(tmp_path, "world")
    codes = [row.split(",")[0] for row in (world / "census.csv").read_text().splitlines()[1:]]
    cells = ["0,", "-5,-1.5", *(f"{1_000 * (k + 1)}," for k in range(len(codes) - 2))]
    rows = [f"{code},{cell}" for code, cell in zip(codes, cells)]
    (world / "census.csv").write_text("\n".join(["code,population,gdp_per_capita", *rows]) + "\n")
    config = str(world / "config.json")
    for stage in (*STAGES, "report"):
        assert cli(stage, "--config", config) == 0, stage
    run = tmp_path / "run"
    for command in ("run", "report"):
        assert cli(command, "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(run)}) == 0
    for name in [*RUN_ARTIFACTS, "report.txt"]:
        assert (world / "artifacts" / name).read_bytes() == (run / name).read_bytes(), name
    stats = (run / "country_stats.csv").read_text()
    assert "nonpositive population -5" in stats and ",-1.5," in stats and ",-" in (run / "balances.csv").read_text()


def test_stages_match_run_on_a_user_id_holding_a_carriage_return(tmp_path):
    world = build_world(tmp_path, "world")
    text = (world / "events.csv").read_bytes()
    user = text.split(b"\n")[1].split(b",")[0]
    (world / "events.csv").write_bytes(text.replace(b"\n" + user + b",", b"\n" + user[:2] + b"\r" + user[2:] + b","))
    config = str(world / "config.json")
    assert cli("run", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "run")}) == 0
    for stage in STAGES:
        assert cli(stage, "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "stages")}) == 0, stage
    assert b"\r" in (tmp_path / "run" / "profiles.csv").read_bytes()
    for name in RUN_ARTIFACTS:
        assert (tmp_path / "stages" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def build_multibyte_world(base):
    """A small world whose user ids and sources hold 2- to 4-byte UTF-8, so lines differ in chars and bytes."""
    world = build_world(base, "world")
    text = (world / "events.csv").read_text(encoding="utf-8")
    text = text.replace("\nu00000", "\nü€𝄞").replace("\nu00001", "\n€u").replace(",app_web\n", ",app_wéb\n")
    (world / "events.csv").write_text(text.replace(",app_mobile\n", ",应用𝄞\n"), encoding="utf-8")
    return world


@pytest.mark.parametrize("block", [1, 3])
def test_block_edges_change_no_byte(tmp_path, monkeypatch, block):
    world = build_multibyte_world(tmp_path)
    config = str(world / "config.json")
    assert cli("run", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "default")}) == 0
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block)
    assert cli("run", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "run")}) == 0
    for stage in STAGES:
        assert cli(stage, "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "stages")}) == 0, stage
    labeled = (tmp_path / "default" / "events_labeled.csv").read_text(encoding="utf-8")
    assert "\nü€𝄞" in labeled and "\n€u" in labeled and ",app_wéb," in labeled and ",应用𝄞," in labeled
    for name in RUN_ARTIFACTS:
        want = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "run" / name).read_bytes() == want, name
        assert (tmp_path / "stages" / name).read_bytes() == want, name


@pytest.mark.parametrize("change", ["truncate", "extend"])
def test_clean_refuses_a_labeled_file_changed_after_ingest(tmp_path, monkeypatch, capsys, change):
    world = build_world(tmp_path, "world")
    ingest_stage = cli_mod.stage_ingest

    def ingest_then_change(ws):
        ingest_stage(ws)
        path = Path(ws.path("events_labeled.csv"))
        data = path.read_bytes()
        path.write_bytes(data[:-10] if change == "truncate" else data + data.splitlines(keepends=True)[-1])

    monkeypatch.setattr(cli_mod, "stage_ingest", ingest_then_change)
    assert cli("run", "--config", str(world / "config.json")) == 6
    err = capsys.readouterr().err
    assert "data error" in err and str(world / "artifacts" / "events_labeled.csv") in err
    assert sorted(path.name for path in (world / "artifacts").iterdir()) == ["events_labeled.csv", "ingest_report.json"]


def test_single_stage_clean_refuses_a_labeled_file_cut_mid_line(pipeline, tmp_path, capsys):
    world, _ = pipeline
    workdir = tmp_path / "artifacts"
    workdir.mkdir()
    labeled = (world / "artifacts" / "events_labeled.csv").read_bytes()
    (workdir / "events_labeled.csv").write_bytes(labeled[:-1])  # the last row still parses, without its LF
    settings = json.loads((world / "config.json").read_text())
    settings["paths"]["workdir"] = str(workdir)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(settings))
    assert cli("clean", "--config", str(config)) == 6
    assert f"{workdir / 'events_labeled.csv'}: the last line has no line end" in capsys.readouterr().err
    assert sorted(path.name for path in workdir.iterdir()) == ["events_labeled.csv"]


def test_census_without_header_keeps_its_first_country(pipeline, tmp_path):
    world, config = pipeline
    census = tmp_path / "census.csv"
    census.write_text("".join((world / "census.csv").read_text().splitlines(keepends=True)[1:]))
    workdir = tmp_path / "artifacts"
    workdir.mkdir()
    shutil.copy(world / "artifacts" / "events_clean.csv", workdir / "events_clean.csv")
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_CENSUS": str(census)}
    assert cli("profile", "--config", config, env=env) == 0
    assert (workdir / "country_stats.csv").read_bytes() == (world / "artifacts" / "country_stats.csv").read_bytes()


def test_env_override_reaches_the_stage(pipeline, tmp_path):
    world, _ = pipeline
    workdir = tmp_path / "artifacts"
    workdir.mkdir()
    shutil.copy(world / "artifacts" / "events_labeled.csv", workdir / "events_labeled.csv")
    settings = json.loads((world / "config.json").read_text())
    settings["paths"]["workdir"] = str(workdir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    assert cli("clean", "--config", str(config), env={"GEOFLOW_CLEAN_COVERAGE": "1.0"}) == 0
    stats = read_json(str(workdir / "cleaning_stats.json"))
    # full coverage keeps every source, so nothing is dropped
    assert stats["events_after"] == stats["events_before"]
    assert stats["user_fraction"] == 1.0
    baseline = read_json(str(world / "artifacts" / "cleaning_stats.json"))
    assert baseline["events_after"] < baseline["events_before"]


@pytest.mark.parametrize(
    "stage, written",
    [
        ("profile", {"profiles.csv", "country_stats.csv"}),
        ("metrics", {"gyration.csv", "mobility_profiles.csv", "displacements.csv"}),
    ],
    ids=["profile", "metrics"],
)
def test_stage_orders_shuffled_events_itself(pipeline, tmp_path, stage, written):
    world, _ = pipeline
    header, *lines = (world / "artifacts" / "events_clean.csv").read_text().splitlines(keepends=True)
    shuffled = lines[:]
    random.Random(7).shuffle(shuffled)
    assert shuffled != lines
    ordered = sorted(shuffled, key=lambda line: (line.split(",")[0], int(line.split(",")[1])))  # stable
    settings = json.loads((world / "config.json").read_text())
    outputs = []
    for name, rows in (("shuffled", shuffled), ("ordered", ordered)):
        workdir = tmp_path / name
        workdir.mkdir()
        (workdir / "events_clean.csv").write_text(header + "".join(rows))
        settings["paths"]["workdir"] = str(workdir)
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(settings))
        assert cli(stage, "--config", str(config)) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(workdir.iterdir())})
    assert outputs[0].keys() == outputs[1].keys() >= written
    for name in outputs[0]:
        if name != "events_clean.csv":
            assert outputs[0][name] == outputs[1][name], name


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli("frobnicate")
    assert exc.value.code == 2


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli("--help")
    assert exc.value.code == 0
    assert "exit codes" in capsys.readouterr().out


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "geoflow", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "geoflow" in proc.stdout


def test_config_errors_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli("ingest", "--config", str(bad)) == 3
    bad.write_text(json.dumps({"clean": {"coverage": 2.0}}))
    assert cli("ingest", "--config", str(bad)) == 3
    assert "config error" in capsys.readouterr().err


BIG = "1" + "0" * 400  # 10**400: JSON reads it as an integer, and no float holds it
HUGE = "1" * 5000  # more digits than int() reads from text


@pytest.mark.parametrize(
    "text, env, key",
    [
        ('{"clean": {"max_speed_kmh": %s}}' % BIG, {}, "clean.max_speed_kmh"),
        ('{"synth": {"gravity": [1, 1, %s, 1]}}' % BIG, {}, "synth.gravity"),
        ("{}", {"GEOFLOW_CLEAN_COVERAGE": BIG}, "clean.coverage"),
        ("{}", {"GEOFLOW_SYNTH_GRAVITY": "[1, %s, 1, 1]" % BIG}, "synth.gravity"),
        ('{"fit": {"min_distance_km": %s}}' % HUGE, {}, "config file is not valid JSON"),
        ("{}", {"GEOFLOW_FIT_MIN_DISTANCE_KM": HUGE}, "fit.min_distance_km"),
    ],
    ids=["file", "file-list", "env", "env-list", "file-too-many-digits", "env-too-many-digits"],
)
def test_number_too_large_for_a_float_exits_three_naming_its_key(tmp_path, capsys, text, env, key):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli("synth", "--config", str(config), "--out", str(tmp_path / "world"), env=env) == 3
    err = capsys.readouterr().err
    assert err.startswith("geoflow: config error: ") and key in err
    assert not (tmp_path / "world").exists()


@pytest.mark.parametrize(
    "env",
    [
        {"GEOFLOW_YEAR": "1969"},
        {"GEOFLOW_YEAR": "10000"},
        {"GEOFLOW_SYNTH_N_COUNTRIES": "677"},
        {"GEOFLOW_SYNTH_N_BLOCKS": "13"},
    ],
)
def test_out_of_range_synth_settings_exit_three_writing_nothing(tmp_path, capsys, env):
    out = tmp_path / "world"
    assert cli("synth", "--out", str(out), env=env) == 3
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_inputs_exit_four(tmp_path, capsys):
    assert cli("ingest", "--config", str(tmp_path / "absent.json")) == 4
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps(
            {
                "paths": {
                    "workdir": str(tmp_path / "artifacts"),
                    "events": str(tmp_path / "no_events.csv"),
                }
            }
        )
    )
    assert cli("ingest", "--config", str(config)) == 4
    config.write_text(json.dumps({"paths": {"workdir": str(tmp_path / "artifacts")}}))
    assert cli("ingest", "--config", str(config)) == 4  # events path not set
    assert "not set" in capsys.readouterr().err


def test_input_path_that_is_not_a_regular_file_exits_four(tmp_path, capsys):
    world = build_world(tmp_path, "world")
    config = str(world / "config.json")
    folder = tmp_path / "folder"
    folder.mkdir()
    assert cli("ingest", "--config", config, env={"GEOFLOW_PATHS_EVENTS": str(folder)}) == 4
    assert cli("ingest", "--config", config) == 0
    assert cli("clean", "--config", config) == 0
    assert cli("profile", "--config", config, env={"GEOFLOW_PATHS_CENSUS": str(folder)}) == 4
    assert capsys.readouterr().err.count("not a regular file") == 2


@pytest.mark.parametrize("where", ["workdir", "workdir below", "out", "out below"])
def test_path_that_cannot_be_written_exits_four(pipeline, tmp_path, capsys, where):
    """A work directory or synth --out that is a regular file, or lies below one: one line, exit 4."""
    world, config = pipeline
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    path = str(taken / "sub" if where.endswith("below") else taken)
    if where.startswith("workdir"):
        assert cli("ingest", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": path}) == 4
    else:
        assert cli("synth", "--config", config, "--out", path) == 4
    err = capsys.readouterr().err
    assert err.startswith("geoflow: ") and err.count("\n") == 1 and "taken" in err
    assert taken.read_text() == "a file\n"


DEEP = b"[" * 100_000 + b"]" * 100_000  # past the JSON parser's recursion limit


@pytest.mark.parametrize(
    "flag, text, code",
    [
        ("boundaries", DEEP, 6), ("boundaries", b'{"type": "\xff"}', 6), ("boundaries", b'{"type": ', 6),
        ("config", DEEP, 3), ("config", b'{"seed": "\xff"}', 3), ("config", b'{"seed": ', 3),
    ],
    ids=["boundaries-deep", "boundaries-not-utf8", "boundaries-cut", "config-deep", "config-not-utf8", "config-cut"],
)
def test_json_input_that_does_not_parse_names_its_file(pipeline, tmp_path, capsys, flag, text, code):
    """A boundaries file or --config nested 100,000 deep, not UTF-8 or cut short: one line naming the file."""
    world, config = pipeline
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    env = {"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "artifacts")}
    if flag == "boundaries":
        assert cli("ingest", "--config", config, env={**env, "GEOFLOW_PATHS_BOUNDARIES": str(bad)}) == code
    else:
        assert cli("ingest", "--config", str(bad), env=env) == code
    err = capsys.readouterr().err
    assert err.startswith("geoflow: ") and err.count("\n") == 1 and str(bad) in err


def test_stage_order_violations_exit_five(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"workdir": str(tmp_path / "artifacts")}}))
    assert cli("clean", "--config", str(config)) == 5
    assert cli("communities", "--config", str(config)) == 5
    err = capsys.readouterr().err
    assert "stage order" in err
    assert "'ingest'" in err


def test_data_errors_exit_six(pipeline, tmp_path, capsys):
    world, _ = pipeline
    workdir = tmp_path / "artifacts"
    workdir.mkdir()
    labeled = (world / "artifacts" / "events_labeled.csv").read_text().splitlines()
    parts = labeled[1].split(",")
    parts[1] = "not_a_timestamp"
    labeled[1] = ",".join(parts)
    (workdir / "events_labeled.csv").write_text("\n".join(labeled) + "\n")
    settings = json.loads((world / "config.json").read_text())
    settings["paths"]["workdir"] = str(workdir)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(settings))
    assert cli("clean", "--config", str(config)) == 6
    assert "data error" in capsys.readouterr().err


def test_bad_byte_in_a_labeled_file_names_its_line(pipeline, tmp_path, capsys):
    world, _ = pipeline
    workdir = tmp_path / "artifacts"
    workdir.mkdir()
    lines = (world / "artifacts" / "events_labeled.csv").read_bytes().split(b"\n")
    lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
    (workdir / "events_labeled.csv").write_bytes(b"\n".join(lines))
    settings = json.loads((world / "config.json").read_text())
    settings["paths"]["workdir"] = str(workdir)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(settings))
    assert cli("clean", "--config", str(config)) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {workdir / 'events_labeled.csv'}:4: invalid UTF-8\n"


def test_bad_byte_in_a_census_names_its_line(pipeline, tmp_path, capsys):
    world, config = pipeline
    census = tmp_path / "census.csv"
    census.write_bytes(b"code,population\nA\xffA,100\n")
    workdir = tmp_path / "artifacts"
    workdir.mkdir()
    shutil.copy(world / "artifacts" / "events_clean.csv", workdir / "events_clean.csv")
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_CENSUS": str(census)}
    assert cli("profile", "--config", config, env=env) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {census}:2: invalid UTF-8\n"


def _f_string_lines(header, *columns):
    """The header, then the cells of each row joined by commas: repr for floats, the value itself otherwise."""
    rows = (",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n" for row in zip(*columns))
    return (",".join(header) + "\n" + "".join(rows)).encode()


# Events the column formatter cannot write, each added to a small world pre-labeled with AA as two events of a
# user of its own (one for the subnormal latitude), with what must then be in the named artifact.
FALLBACK_TRIGGERS = {
    "subnormal latitude": (["subnormal,{t},5e-324,20.0,{source},AA"], "events_labeled.csv", b",5e-324,20.0,"),
    "5e-05 km displacement": (
        ["near,{t},10.0,20.0,{source},AA", "near,{t2},10.00000045,20.0,{source},AA"], "displacements.csv", b"e-05\n"
    ),
    "NUL in a user id": (
        ["nul\0user,{t},10.0,20.0,{source},AA", "nul\0user,{t2},10.0,20.0,{source},AA"],
        "displacements.csv",
        b"\nnul\0user,0.0\n",
    ),
    "long user id": (
        ["u" * 100_000 + ",{t},10.0,20.0,{source},AA", "u" * 100_000 + ",{t2},10.5,20.0,{source},AA"],
        "displacements.csv",
        b"\n" + b"u" * 100_000 + b",",
    ),
}


@pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS)
def test_each_fallback_trigger_writes_the_f_string_bytes(tmp_path, trigger):
    lines, artifact, marker = FALLBACK_TRIGGERS[trigger]
    world = build_world(tmp_path, "world")
    text = (world / "events.csv").read_text(encoding="utf-8")
    first = text.splitlines()[1].split(",")
    source = Counter(line.split(",")[4] for line in text.splitlines()[1:]).most_common(1)[0][0]
    t = int(first[1])
    extra = "".join(line.format(t=t, t2=t + 3600, source=source) + "\n" for line in lines)
    (world / "events.csv").write_text(text + extra, encoding="utf-8")
    workdir = tmp_path / "artifacts"
    assert cli("run", "--config", str(world / "config.json"), env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 0
    assert marker in (workdir / artifact).read_bytes()

    with open(world / "events.csv", "rb") as fh:
        parsed = ingest.parse_events(fh).events
    index = ingest.BoundaryIndex(ingest.load_boundaries(str(world / "boundaries.geojson")))
    e, _ = ingest.label_events(parsed, index)
    columns = [e.user, e.timestamp, e.lat, e.lon, e.source, e.country]
    names = [e.users, None, None, None, e.sources, e.countries + [""]]
    cells = [[vocab[k] for k in c.tolist()] if vocab else c.tolist() for vocab, c in zip(names, columns)]
    assert (workdir / "events_labeled.csv").read_bytes() == _f_string_lines(tables.EVENT_HEADER, *cells)
    clean = tables.read_events(str(workdir / "events_clean.csv"))
    users, km = metrics.displacements(clean)
    want = _f_string_lines(["user_id", "km"], [clean.users[u] for u in users.tolist()], km.tolist())
    assert (workdir / "displacements.csv").read_bytes() == want
    radii = metrics.user_gyration_radii(clean)  # every user of events_clean.csv has an event there
    assert (workdir / "gyration.csv").read_bytes() == _f_string_lines(["user_id", "km"], clean.users, radii.tolist())


@pytest.mark.parametrize("key, stage", [("census", "run"), ("capitals", "run"), ("reference", "validate")])
def test_duplicate_code_in_a_code_table_exits_six(pipeline, tmp_path, capsys, key, stage):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    if key == "reference":
        text = "code,arrivals,receipts\nAA,1.0,2.0\nAB,3.0,4.0\n"
    else:
        text = (world / f"{key}.csv").read_text()
    header, first, *_ = text.splitlines()
    table = tmp_path / f"{key}.csv"
    table.write_text(text + "aa" + first[2:] + "\n")  # AA again, in lower case
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), f"GEOFLOW_PATHS_{key.upper()}": str(table)}
    assert cli(stage, "--config", config, env=env) == 6
    err = capsys.readouterr().err
    assert "code AA" in err and str(table) in err


def test_bad_reference_value_is_its_legs_error(pipeline, tmp_path):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    reference = tmp_path / "reference.csv"
    reference.write_text("code,arrivals,receipts\nAA,1.0,nan\nAB,3.0,4.0\n")
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_REFERENCE": str(reference)}
    assert cli("validate", "--config", config, env=env) == 0
    report = read_json(str(workdir / "validate.json"))
    assert report["receipts"] == {"error": f"{reference}: code AA: 'nan' is not finite"}
    assert "code AA" not in report["arrivals"].get("error", "")


def test_validate_reads_the_reference_once(pipeline, tmp_path, monkeypatch):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    reference = tmp_path / "reference.csv"
    reference.write_text("code,arrivals,receipts\nAA,1.0,2.0\nAB,3.0,4.0\n")
    read, numbered_lines = [], tables._numbered_lines
    monkeypatch.setattr(tables, "_numbered_lines", lambda path: read.append(path) or numbered_lines(path))
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_REFERENCE": str(reference)}
    assert cli("validate", "--config", config, env=env) == 0
    assert read.count(str(reference)) == 1 and set(read) == {str(reference), str(workdir / "balances.csv")}


def test_unreadable_reference_exits_six(pipeline, tmp_path, capsys):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    reference = tmp_path / "reference.csv"
    reference.write_bytes(b"code,arrivals,receipts\nA\xffA,1.0,2.0\n")
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_REFERENCE": str(reference)}
    assert cli("validate", "--config", config, env=env) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {reference}:2: invalid UTF-8\n"


@pytest.mark.parametrize("row", ["AA,500,900", "AA,nan,inf", "AA,-90.5,0", "AA,0,180.5", "AA,1,east"])
def test_capital_out_of_range_exits_six_writing_no_fit(pipeline, tmp_path, capsys, row):
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    (workdir / "gravity_fit.json").unlink()
    capitals = tmp_path / "capitals.csv"
    header, _, *rest = (world / "capitals.csv").read_text().splitlines(keepends=True)
    capitals.write_text("".join([header, row + "\n", *rest]))
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_CAPITALS": str(capitals)}
    assert cli("fit-gravity", "--config", config, env=env) == 6
    err = capsys.readouterr().err
    assert f"{capitals}: code AA: " in err and "Traceback" not in err
    assert not (workdir / "gravity_fit.json").exists()


def test_workers_key_exits_three(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"workers": 1}))
    assert cli("ingest", "--config", str(config)) == 3
    assert "workers" in capsys.readouterr().err


def test_invalid_utf8_byte_is_one_malformed_line(tmp_path):
    world = build_world(tmp_path, "world")
    events = world / "events.csv"
    lines = events.read_bytes().split(b"\n")
    lines[5] = lines[5][:2] + b"\xff" + lines[5][2:]
    events.write_bytes(b"\n".join(lines))
    assert cli("ingest", "--config", str(world / "config.json")) == 0
    report = read_json(str(world / "artifacts" / "ingest_report.json"))
    assert report["n_malformed"] == 1
    assert report["errors_first_10"] == [[6, "invalid UTF-8"]]
    assert report["n_events"] + report["n_malformed"] + 1 == report["n_lines"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_country_missing_from_census_leaves_the_network(tmp_path, flags):
    world = build_world(tmp_path, "world")
    census = (world / "census.csv").read_text().splitlines()
    dropped = census[1].split(",")[0]
    (world / "census.csv").write_text("\n".join([census[0]] + census[2:]) + "\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEOFLOW_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(geoflow.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "geoflow", "run", "--config", str(world / "config.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (world / "artifacts" / "balances.csv").read_text().splitlines()[1:]
    codes = [row.split(",")[0] for row in rows]
    assert codes and dropped not in codes


def test_run_parses_events_once_and_builds_profiles_once(tmp_path, monkeypatch):
    world = build_world(tmp_path, "world")
    calls = Counter()
    for module, name in (
        (ingest, "parse_events"), (tables, "read_events"), (residence, "build_profiles"), (ingest, "build_trajectories")
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli("run", "--config", str(world / "config.json")) == 0
    names = "parse_events", "read_events", "build_profiles", "build_trajectories"
    assert [calls[name] for name in names] == [1, 0, 1, 1]  # clean's sort is the only one


def test_run_computes_gyration_radii_once(tmp_path, monkeypatch):
    world = build_world(tmp_path, "world")
    calls = Counter()
    for name in ("user_gyration_radii", "build_mobility_profiles"):

        def counted(*args, _name=name, _original=getattr(metrics, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)
    assert cli("run", "--config", str(world / "config.json")) == 0
    assert calls["user_gyration_radii"] == 1
    assert calls["build_mobility_profiles"] == 1


def test_country_stats_keep_gdp_per_capita(tmp_path):
    world = build_world(tmp_path, "world")
    census = (world / "census.csv").read_text().splitlines()
    rich = census[1].split(",")[0]
    rows = [census[0] + ",gdp_per_capita", census[1] + ",41500.5"] + [row + "," for row in census[2:]]
    (world / "census.csv").write_text("\n".join(rows) + "\n")
    config = str(world / "config.json")
    for stage in ("ingest", "clean", "profile"):
        assert cli(stage, "--config", config) == 0
    stats = stats_by_code(cli_mod.Workspace(load_config(config, env={})).read_rows("country_stats.csv"))
    assert stats[rich].gdp_per_capita == 41500.5
    assert [c for c, s in stats.items() if s.gdp_per_capita is not None] == [rich]


CSV_ARTIFACTS = [name for name, artifact in cli_mod.ARTIFACTS.items() if artifact.header is not None]


@pytest.mark.parametrize("name", CSV_ARTIFACTS)
def test_write_table_rejects_columns_other_than_the_declared_ones(tmp_path, name):
    ws = cli_mod.Workspace({"paths": {"workdir": str(tmp_path)}, "communities": {"max_levels": 2}})
    columns = ws.columns(name)
    header = list(columns)
    # A value of each column's kind that reads back as itself, of its own type.
    row = [next(v for v in ("AA", 1, 0.5, True) if repr(kind.values([tables.fmt(v)])) == repr([v]))
           for kind in columns.values()]
    for names in (["name", *header[1:]], header[::-1], header[:-1], [*header, "extra"]):
        with pytest.raises(ValueError, match=f"{re.escape(name)}: columns"):
            ws.write_table(name, {column: [value] for column, value in zip(names, row + [0])})
    assert not (tmp_path / name).exists()
    ws.write_table(name, {column: [value] for column, value in zip(header, row)})
    assert (tmp_path / name).read_text() == ",".join(header) + "\n" + ",".join(map(tables.fmt, row)) + "\n"
    assert ws.read_rows(name) == {column: [value] for column, value in zip(header, row)}


def _a_value(kind):
    """A value of a declared JSON kind: for an object, one of each of its keys; for a list, an empty one."""
    if isinstance(kind, dict):
        return {key: _a_value(item) for key, item in kind.items()}
    return [] if isinstance(kind, list) else next(v for v in (1, True, "text", {}) if kind.values([v]) is not None)


@pytest.mark.parametrize("name", JSON_ARTIFACTS)
def test_write_json_rejects_keys_other_than_the_declared_ones(tmp_path, name):
    ws = cli_mod.Workspace({"paths": {"workdir": str(tmp_path)}})
    artifact = cli_mod.ARTIFACTS[name]
    entry = _a_value(artifact.keys)
    keys = list(entry)
    wrong = [{key: entry.get(key, 0) for key in names}
             for names in (["name", *keys[1:]], keys[::-1], keys[:-1], [*keys, "extra"])]
    # An object that the keys declare holds its own keys, in order, or only an error.
    for key, kind in artifact.keys.items():
        if isinstance(kind, dict):
            wrong += [dict(entry, **{key: dict(reversed(entry[key].items()))}),
                      dict(entry, **{key: {"error": "why", **entry[key]}})]
    if artifact.legs:
        wrong += [{"error": "why", **entry}]
    for doc in wrong:
        with pytest.raises(ValueError, match=f"{re.escape(name)}: .*keys .* are not the declared"):
            ws.write_json(name, {"leg": doc} if artifact.legs else doc)
    # The writer checks the values as the reader does.
    doc = dict(entry, **{keys[0]: None})
    with pytest.raises(ValueError, match=f"{re.escape(name)}: .*{keys[0]} is null, not "):
        ws.write_json(name, {"leg": doc} if artifact.legs else doc)
    assert not (tmp_path / name).exists()
    doc = {"leg": entry, "failed": {"error": "why"}} if artifact.legs else entry
    ws.write_json(name, doc)
    assert read_json(str(tmp_path / name)) == ws.read_json(name) == doc


def test_every_csv_artifact_of_a_run_reads_back_as_it_was_written(pipeline, tmp_path):
    # Read back through its declared columns, and written again from them as lists, a row at a time, each
    # artifact is the same bytes: csv_blocks and write_events' copy wrote what write_rows writes.
    world, config = pipeline
    shutil.copytree(world / "artifacts", tmp_path / "artifacts")
    ws = cli_mod.Workspace(load_config(config, env={"GEOFLOW_PATHS_WORKDIR": str(tmp_path / "artifacts")}))
    for name in CSV_ARTIFACTS:
        written = (tmp_path / "artifacts" / name).read_bytes()
        table = ws.read_rows(name)
        assert {len(column) for column in table.values()} == {written.count(b"\n") - 1} != {0}, name
        ws.write_table(name, table)
        assert (tmp_path / "artifacts" / name).read_bytes() == written, name


@pytest.mark.parametrize("events", ["header-only", "all-ocean"])
def test_run_without_a_located_event_writes_header_only_tables_and_exits_6(tmp_path, capsys, events):
    world = build_world(tmp_path, "world")
    header, *lines = (world / "events.csv").read_text().splitlines(keepends=True)
    if events == "header-only":
        lines = []
    else:  # every point at 80 degrees south, far from every country of the world
        lines = [",".join([*fields[:2], "-80.0", *fields[3:]]) for fields in (line.split(",") for line in lines)]
    (world / "events.csv").write_text(header + "".join(lines))
    config = str(world / "config.json")
    assert cli("run", "--config", config) == 6
    assert capsys.readouterr().err == "geoflow: data error: empty network: nothing to partition\n"
    ws = cli_mod.Workspace(load_config(config, env={}))
    written = [name for name in CSV_ARTIFACTS if (world / "artifacts" / name).exists()]
    assert written == CSV_ARTIFACTS[: CSV_ARTIFACTS.index("top_flows.csv") + 1]
    for name in written:
        assert (world / "artifacts" / name).read_text() == ",".join(ws.columns(name)) + "\n", name
        assert ws.read_rows(name) == {column: [] for column in ws.columns(name)}, name
    report = read_json(str(world / "artifacts" / "ingest_report.json"))
    assert (report["n_labeled"], report["n_unlocatable_dropped"]) == (0, len(lines))


def test_edgeless_network_gives_flat_levels(tmp_path):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(SYNTH_SETTINGS))
    world = tmp_path / "world"
    assert cli("synth", "--config", str(config_path), "--out", str(world), env={"GEOFLOW_SYNTH_TRIP_RATE": "0"}) == 0
    config = str(world / "config.json")
    for levels in ("1", "3"):
        env = {"GEOFLOW_NETWORK_MIN_OUTGOING": "0", "GEOFLOW_COMMUNITIES_MAX_LEVELS": levels}
        assert cli("run", "--config", config, env=env) == 0
        report = read_json(str(world / "artifacts" / "communities_report.json"))
        assert report["q_per_level"] == [0.0] * int(levels)
        assert report["communities_per_level"] == [1] * int(levels)


def test_communities_on_raw_weights_partition_the_raw_edges(tmp_path):
    world = tmp_path / "world"
    assert cli("synth", "--out", str(world)) == 0  # the default world
    config = str(world / "config.json")
    assert cli("run", "--config", config) == 0
    workdir = tmp_path / "raw"
    shutil.copytree(world / "artifacts", workdir)
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_COMMUNITIES_WEIGHTS": "raw"}
    assert cli("communities", "--config", config, env=env) == 0
    settings = load_config(config)
    levels = settings["communities"]["max_levels"]
    edges = tables.read_rows(str(workdir / "edges.csv"), cli_mod.ARTIFACTS["edges.csv"].header)
    nodes = tables.read_rows(str(workdir / "balances.csv"), cli_mod.ARTIFACTS["balances.csv"].header)["code"]
    want = community.hierarchical_partition(
        {(o, d): float(raw) for o, d, raw in zip(edges["origin"], edges["destination"], edges["raw_weight"])},
        max_levels=levels, seed=settings["seed"], restarts=settings["communities"]["restarts"], nodes=nodes,
    )
    header = ["country", *(f"level{k}" for k in range(1, levels + 1))]
    rows = [",".join([code, *(str(level.assignment[code]) for level in want.levels)]) for code in sorted(nodes)]
    assert (workdir / "communities.csv").read_text() == "\n".join([",".join(header), *rows]) + "\n"
    raw, est = (read_json(str(d / "communities_report.json")) for d in (workdir, world / "artifacts"))
    assert raw["communities_per_level"] == [level.n_communities for level in want.levels]
    assert raw["communities_per_level"] != est["communities_per_level"]


POLYGON = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}
MALFORMED_BOUNDARIES = {
    "not_an_object": [1, 2],
    "features_not_a_list": {"type": "FeatureCollection", "features": 5},
    "properties_a_string": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": "AA", "geometry": POLYGON}],
    },
    "coordinates_flat": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"code": "AA"}, "geometry": {"type": "Polygon", "coordinates": [1, 2]}}],
    },
    "vertex_one_number": {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"code": "AA"},
                "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1], [0, 0]]]},
            }
        ],
    },
    "vertex_a_string": {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"code": "AA"},
                "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], ["1", "x"], [0, 0]]]},
            }
        ],
    },
    "polygon_without_rings": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"code": "AA"}, "geometry": {"type": "Polygon", "coordinates": []}}],
    },
    "polygon_with_empty_ring": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"code": "AA"}, "geometry": {"type": "Polygon", "coordinates": [[]]}}],
    },
    "multipolygon_part_without_rings": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"code": "AA"}, "geometry": {"type": "MultiPolygon", "coordinates": [[]]}}],
    },
    "code_of_three_letters": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"code": "ABC"}, "geometry": POLYGON}],
    },
    "code_holding_a_comma": {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"code": "A,B"}, "geometry": POLYGON}],
    },
    "vertex_too_large_for_a_float": {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"code": "AA"},
                "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [10**400, 0], [1, 1], [0, 0]]]},
            }
        ],
    },
}


@pytest.mark.parametrize("doc", MALFORMED_BOUNDARIES.values(), ids=MALFORMED_BOUNDARIES.keys())
def test_malformed_boundaries_exit_six(pipeline, tmp_path, doc):
    world, _ = pipeline
    boundaries = tmp_path / "boundaries.geojson"
    boundaries.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEOFLOW_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(geoflow.__file__).parents[1]), env.get("PYTHONPATH")]))
    env["GEOFLOW_PATHS_BOUNDARIES"] = str(boundaries)
    env["GEOFLOW_PATHS_WORKDIR"] = str(tmp_path / "artifacts")
    proc = subprocess.run(
        [sys.executable, "-m", "geoflow", "ingest", "--config", str(world / "config.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 6, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "boundary feature 0" in proc.stderr or "FeatureCollection" in proc.stderr


def test_run_hands_the_power_law_samples_over_in_memory(tmp_path, monkeypatch):
    world = build_world(tmp_path, "world")
    config = str(world / "config.json")
    read = []

    def recording(original):
        def reader(path, *args, **kwargs):
            read.append(os.path.basename(path))
            return original(path, *args, **kwargs)
        return reader

    monkeypatch.setattr(tables, "read_rows", recording(tables.read_rows))
    assert cli("run", "--config", config) == 0
    assert read and not {"displacements.csv", "gyration.csv"} & set(read)
    fit = (world / "artifacts" / "powerlaw_fit.json").read_bytes()
    read.clear()
    assert cli("fit-powerlaw", "--config", config) == 0  # a single stage reads the samples back
    assert {"displacements.csv", "gyration.csv"} <= set(read)
    assert (world / "artifacts" / "powerlaw_fit.json").read_bytes() == fit


@pytest.mark.parametrize(
    "name, line, named",
    [
        ("displacements.csv", "u1,1e308", "column km: '1e308' is not a distance from 0 to 20015.114442035923"),
        ("displacements.csv", "u1,nan", "column km: 'nan' is not a distance"),
        ("displacements.csv", "u1,-0.5", "column km: '-0.5' is not a distance"),
        ("gyration.csv", "u1,abc", "column km: 'abc' is not a distance"),
        ("gyration.csv", "u1,inf", "column km: 'inf' is not a distance"),
        ("gyration.csv", "u1,2.0,3.0", "expected 2 fields, got 3"),
        ("displacements.csv", "2.0", "expected 2 fields, got 1"),
    ],
    ids=["overflow", "nan", "negative", "not-a-number", "infinite", "three-fields", "one-field"],
)
def test_fit_powerlaw_rejects_km_rows_it_cannot_read_back(pipeline, tmp_path, capsys, name, line, named):
    """A single-stage fit-powerlaw reads the km files back: a bad row exits 6 naming its file, line and column."""
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    lines = (workdir / name).read_text().splitlines()
    lines[2] = line
    (workdir / name).write_text("\n".join(lines) + "\n")
    assert cli("fit-powerlaw", "--config", config, env={"GEOFLOW_PATHS_WORKDIR": str(workdir)}) == 6
    err = capsys.readouterr().err
    assert err.startswith(f"geoflow: data error: {workdir / name}:3: {named}") and err.count("\n") == 1


NOT_NONNEGATIVE = "is not a nonnegative finite number"


@pytest.mark.parametrize(
    "name, edit, command, named",
    [
        ("edges.csv", {"est_weight": "nan"}, "fit-gravity", f"column est_weight: 'nan' {NOT_NONNEGATIVE}"),
        ("edges.csv", {"est_weight": "1e400"}, "fit-gravity", f"column est_weight: '1e400' {NOT_NONNEGATIVE}"),
        ("country_stats.csv", {"penetration": "nan"}, "network", f"column penetration: 'nan' {NOT_NONNEGATIVE}"),
        ("country_stats.csv", {"included": "maybe"}, "network", "column included: 'maybe' is not true or false"),
        ("mobility_profiles.csv", 2, "report", "expected 5 fields, got 2"),
        ("top_flows.csv", 2, "report", "expected 5 fields, got 2"),
        ("edges.csv", {"raw_weight": "x"}, "communities", "column raw_weight: 'x' is not a count"),
        ("country_stats.csv", {"residents": "x"}, "network", "column residents: 'x' is not a count"),
        ("mobility_profiles.csv", {"mobility_rate": "x"}, "report", f"column mobility_rate: 'x' {NOT_NONNEGATIVE}"),
        ("edges.csv", 3, "communities", "expected 4 fields, got 3"),
        ("balances.csv", {"inflow": "x"}, "validate", f"column inflow: 'x' {NOT_NONNEGATIVE}"),
    ],
    ids=["nan-weight", "overflowing-weight", "nan-penetration", "maybe-included", "short-mobility-row",
         "short-top-flow", "weight-not-a-count", "residents-not-a-count", "rate-not-a-number", "short-edge",
         "inflow-not-a-number"],
)
def test_stages_reject_artifact_cells_they_cannot_read_back(pipeline, tmp_path, capsys, name, edit, command, named):
    """A stage that reads an artifact back exits 6 on a bad row of it, naming the file, the line and the column:
    `edit` sets cells of line 3 by column name, or keeps only that many of its fields."""
    world, config = pipeline
    workdir = tmp_path / "artifacts"
    shutil.copytree(world / "artifacts", workdir)
    lines = (workdir / name).read_text().splitlines()
    fields = lines[2].split(",")
    if isinstance(edit, int):
        fields = fields[:edit]
    else:
        header = lines[0].split(",")
        for column, cell in edit.items():
            fields[header.index(column)] = cell
    lines[2] = ",".join(fields)
    (workdir / name).write_text("\n".join(lines) + "\n")
    reference = tmp_path / "reference.csv"
    reference.write_text("code,arrivals,receipts\nAA,1.0,2.0\n")
    env = {"GEOFLOW_PATHS_WORKDIR": str(workdir), "GEOFLOW_PATHS_REFERENCE": str(reference)}
    assert cli(command, "--config", config, env=env) == 6
    err = capsys.readouterr().err
    assert err == f"geoflow: data error: {workdir / name}:3: {named}\n"


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location("layers", Path(__file__).parents[1] / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


# Traced layers that `run` does not call: read_events serves the single-stage
# commands, optimize_partition is public API the hierarchy no longer uses, and
# synth builds the benchmark's inputs.
NOT_IN_RUN = {"tables.read_events", "community.optimize_partition"}
# What perfbench/tracer.py reads off the calls it counts.
TRACED_COUNTS = {
    "ingest.parse_events": lambda args, r: r.n_lines + r.n_malformed,
    "ingest.label_events": lambda args, r: len(r[0]) + r[1],
    "tables.write_events": lambda args, r: len(args[1]),
    "clean.speed_filter": lambda args, r: r[1],
    "clean.source_popularity_filter": lambda args, r: r[2].events_after,
}


def test_run_calls_every_traced_layer(tmp_path, monkeypatch):
    world = build_world(tmp_path, "world")
    names = [n for n in _perfbench_layers().SELF_S if n not in NOT_IN_RUN and not n.startswith("synth.")]
    calls = Counter()
    counts = Counter()
    for name in names:
        module = importlib.import_module(f"geoflow.{name.split('.')[0]}")
        attr = name.split(".")[1]

        def counted(*args, _name=name, _original=getattr(module, attr), **kwargs):
            result = _original(*args, **kwargs)
            calls[_name] += 1
            if _name in TRACED_COUNTS:
                counts[_name] += int(TRACED_COUNTS[_name](args, result))
            return result

        monkeypatch.setattr(module, attr, counted)
    assert cli("run", "--config", str(world / "config.json")) == 0
    assert [name for name in names if not calls[name]] == []
    assert set(counts) == set(TRACED_COUNTS)  # every count the tracer takes reads off its call


def test_run_does_not_import_numpy_ma(tmp_path):
    # On NumPy 2, np.unique without return_inverse or return_counts imports numpy.ma: 12-16 ms per process.
    world = build_world(tmp_path, "world")
    script = (
        "import sys; import numpy; before = 'numpy.ma' in sys.modules; from geoflow import cli; "
        f"code = cli.main(['run', '--config', {str(world / 'config.json')!r}]); "
        "print(before, code, 'numpy.ma' in sys.modules)"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEOFLOW_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(geoflow.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    before, code, after = proc.stdout.split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.ma here")
    assert (code, after) == ("0", "False")


def geoflow_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GEOFLOW_", "OPENBLAS_"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(geoflow.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env | extra


def test_run_does_not_import_numpy_random(tmp_path):
    # Visit orders come from community's own copy of the streams; numpy.random is 5 MiB of code pages.
    world = build_world(tmp_path, "world")
    script = (
        "import sys; import numpy; before = 'numpy.random' in sys.modules; from geoflow import cli; "
        f"code = cli.main(['run', '--config', {str(world / 'config.json')!r}]); "
        "print(before, code, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=geoflow_env())
    assert proc.returncode == 0, proc.stderr
    before, code, after = proc.stdout.split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.random here")
    assert (code, after) == ("0", "False")


def thread_count(module, **extra):
    script = f"import os; import {module}; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=geoflow_env(**extra))
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
def test_geoflow_starts_one_blas_thread_unless_told_otherwise():
    # numpy's OpenBLAS starts a worker per CPU on import; the pipeline is single-threaded.
    assert thread_count("geoflow.cli") == 1
    # A user's own setting wins: as many threads as numpy alone starts under it (two with OpenBLAS on two or more cores).
    assert thread_count("geoflow.cli", OPENBLAS_NUM_THREADS="2") == thread_count("numpy", OPENBLAS_NUM_THREADS="2")


# ---------------------------------------------------------------- declared config settings


TEXT_SETTINGS = {name for name, (default, _) in config_mod.SETTINGS.items() if isinstance(default, str)}
TINY = 5e-324  # the least positive float
# For each setting with a range, values just outside it, and values on its edges, which load.
OUTSIDE = {
    "seed": [-1],
    "year": [1969, 10000],
    "clean.max_speed_kmh": [0, -0.0, math.inf, math.nan],
    "clean.coverage": [0.0, math.nextafter(1.0, 2.0)],
    "clean.weight_mode": ["bytes", "Users"],
    "residence.min_penetration": [-TINY, math.inf],
    "residence.min_residents": [-1],
    "metrics.gyration_over": ["none"],
    "network.min_outgoing": [-1],
    "network.min_penetration": [-TINY],
    "network.top_k": [0],
    "communities.max_levels": [0],
    "communities.restarts": [0],
    "communities.weights": ["EST"],
    "fit.powerlaw_xmin_km": [0.0],
    "fit.min_distance_km": [-TINY, -math.inf],
    "synth.n_countries": [0, 677],
    "synth.users_per_country": [0],
    "synth.events_per_user": [0],
    "synth.trip_rate": [-TINY, math.nextafter(1.0, 2.0)],
    "synth.bot_fraction": [-TINY, 1.0],
    "synth.n_blocks": [0, 13],
    "synth.block_boost": [math.nextafter(1.0, 0.0), math.nan],
    "synth.gravity": [[math.nan, 1, 1, 1], [1, 1, 1, -math.inf], [1, 1, 1], [1, 1, 1, 1, 1]],
}
INSIDE = {
    "seed": [0],
    "year": [1970, 9999],
    "clean.max_speed_kmh": [TINY, 1e308],
    "clean.coverage": [TINY, 1],
    "clean.weight_mode": ["events", "users"],
    "residence.min_penetration": [0],
    "residence.min_residents": [0],
    "metrics.gyration_over": ["mobile"],
    "network.min_outgoing": [0],
    "network.min_penetration": [0.0],
    "network.top_k": [1],
    "communities.max_levels": [1],
    "communities.restarts": [1],
    "communities.weights": ["raw"],
    "fit.powerlaw_xmin_km": [TINY],
    "fit.min_distance_km": [0],
    "synth.n_countries": [1, 676],
    "synth.users_per_country": [1],
    "synth.events_per_user": [1],
    "synth.trip_rate": [0, 1],
    "synth.bot_fraction": [0, math.nextafter(1.0, 0.0)],
    "synth.n_blocks": [1, 12],
    "synth.block_boost": [1],
    "synth.gravity": [[-1e308, 0, -5, 1e308]],
}


def config_file(path, name, value):
    """A config file setting `name` (dotted) to `value`, written as Python's json writes it (NaN and Infinity too)."""
    section, _, key = name.rpartition(".")
    path.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    return str(path)


def synth_with_file(tmp_path, name, value):
    """The exit code of `geoflow synth --out <tmp_path>/w` with a config file setting `name` to `value`."""
    return cli("synth", "--config", config_file(tmp_path / "c.json", name, value), "--out", str(tmp_path / "w"))


def env_text(value):
    return value if isinstance(value, str) else json.dumps(value)


def env_name(name):
    return "GEOFLOW_" + name.replace(".", "_").upper()


def setting(config, name):
    section, _, key = name.rpartition(".")
    return (config[section] if section else config)[key]


def assert_config_error(capsys, name):
    err = capsys.readouterr().err
    assert err.startswith("geoflow: config error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert name in err and "Traceback" not in err


def test_every_setting_with_a_range_has_its_edge_cases():
    paths = {name for name in config_mod.SETTINGS if name.startswith("paths.")}
    assert set(OUTSIDE) == set(INSIDE) == set(config_mod.SETTINGS) - paths


@pytest.mark.parametrize("name", sorted(config_mod.SETTINGS))
def test_a_file_value_of_the_wrong_json_type_exits_three_naming_its_key(tmp_path, capsys, name):
    wrong = [True, None, {}] + ([1] if name in TEXT_SETTINGS else ["1", [1]])
    for value in wrong:
        assert synth_with_file(tmp_path, name, value) == 3
        assert_config_error(capsys, name)
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("name", sorted(set(config_mod.SETTINGS) - TEXT_SETTINGS))
def test_an_env_value_of_the_wrong_json_type_exits_three_naming_its_key(tmp_path, capsys, name):
    for raw in ("true", "null", "{}", '"1"', "x"):
        assert cli("synth", "--out", str(tmp_path / "w"), env={env_name(name): raw}) == 3
        assert_config_error(capsys, name)
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("name", sorted(OUTSIDE))
def test_a_value_just_outside_a_settings_range_exits_three_naming_its_key(tmp_path, capsys, name):
    for value in OUTSIDE[name]:
        assert synth_with_file(tmp_path, name, value) == 3
        assert_config_error(capsys, name)
        assert cli("synth", "--out", str(tmp_path / "w"), env={env_name(name): env_text(value)}) == 3
        assert_config_error(capsys, name)
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("name", sorted(INSIDE))
def test_a_file_value_out_of_range_that_an_env_value_overrides_loads(tmp_path, name):
    path = config_file(tmp_path / "c.json", name, OUTSIDE[name][0])
    for value in INSIDE[name]:
        config = config_mod.load_config(path, env={env_name(name): env_text(value)})
        assert setting(config, name) == value
        assert type(setting(config, name)) is type(setting(config_mod.DEFAULTS, name))  # a number key holds a float
        assert setting(config_mod.load_config(config_file(tmp_path / "c.json", name, value), env={}), name) == value


@pytest.mark.parametrize("file, env, message", [
    ({"clean": {"coverage": 1.5}}, {}, "clean.coverage is 1.5, not a number in (0, 1]"),
    ({"seed": True}, {}, "seed is true, not an integer in [0, inf)"),
    ({}, {"GEOFLOW_CLEAN_MAX_SPEED_KMH": "Infinity"}, "clean.max_speed_kmh is Infinity, not a number in (0, inf)"),
    ({}, {"GEOFLOW_SYNTH_GRAVITY": "[NaN, 1, 1, 1]"}, "synth.gravity is [NaN, 1.0, 1.0, 1.0], not a list of 4 numbers"),
    ({"clean": {"weight_mode": "bytes"}}, {}, 'clean.weight_mode is "bytes", not "users" or "events"'),
    ({"paths": {"workdir": 7}}, {}, "paths.workdir is 7, not text"),
    ({"clean": "fast"}, {}, 'clean is "fast", not an object'),
    ({"synth": {"n_countries": 3}}, {"GEOFLOW_SYNTH_N_BLOCKS": "4"}, "synth.n_blocks is 4, not an integer in [1, 3]"),
])
def test_config_errors_take_the_form_of_the_json_artifacts_errors(tmp_path, capsys, file, env, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(file))
    assert cli("ingest", "--config", str(path), env=env) == 3
    assert capsys.readouterr().err == f"geoflow: config error: {message}\n"


def test_loaded_configs_share_no_list_with_the_defaults():
    config_mod.load_config(env={})["synth"]["gravity"].append(0.0)
    assert config_mod.DEFAULTS["synth"]["gravity"] == [1.0, 1.0, 1.0, 1.0]
    assert config_mod.load_config(env={})["synth"]["gravity"] == [1.0, 1.0, 1.0, 1.0]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("gravity", ["[1, 1, 1, 1]", "[2.0, 0.9, 0.7, 1.1]", "[1, 0, 0, 0]"])
def test_synth_writes_strict_json(tmp_path, gravity):
    out = tmp_path / "world"
    env = {"GEOFLOW_SYNTH_GRAVITY": gravity, "GEOFLOW_CLEAN_MAX_SPEED_KMH": "1e308",
           "GEOFLOW_SYNTH_USERS_PER_COUNTRY": "20", "GEOFLOW_SYNTH_EVENTS_PER_USER": "5"}
    assert cli("synth", "--out", str(out), env=env) == 0
    for name in ("config.json", "truth.json", "boundaries.geojson"):
        json.loads((out / name).read_text(), parse_constant=refuse_constant)
    truth = json.loads((out / "truth.json").read_text())
    assert any(truth["planted_mobility"].values())


@pytest.mark.parametrize("gravity, named", [
    ("[1, 100, 1, 1]", "the planted flow AA->AB is not a finite number"),  # p**100 overflows
    ("[1, 1, 1, -100]", "the planted flow AA->AB is not a finite number"),  # r**-100 rounds to 0
    ("[1e308, 1, 1, 1]", "the planted flow AA->AB is not a finite number"),  # A * p rounds to inf
    ("[1e308, 0, 0, 0]", "the planted flows out of AA sum past the float range"),  # each 1e308, 11 of them
])
def test_synth_gravity_whose_planted_flows_overflow_exits_six(tmp_path, capsys, gravity, named):
    out = tmp_path / "world"
    assert cli("synth", "--out", str(out), env={"GEOFLOW_SYNTH_GRAVITY": gravity}) == 6
    assert capsys.readouterr().err == f"geoflow: data error: {named}\n"
    assert not out.exists() or list(out.iterdir()) == []
