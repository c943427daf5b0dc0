"""Tests of the benchmark's own parts. Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from geoflow import cli  # noqa: E402
from geoflow.ingest import BoundaryIndex, CountryBoundary  # noqa: E402
from geoflow.synth import generate_events, make_world  # noqa: E402


def test_star_outline_contains_every_jittered_point():
    world = make_world(12, seed=3)
    events, _ = generate_events(world, users_per_country=5, events_per_user=50, trip_rate=0.3)
    rng = random.Random(3)
    index = BoundaryIndex([
        CountryBoundary(c.code, [[[tuple(v) for v in inputs.star_ring(*c.capital, rng)]]])
        for c in world.countries
    ])
    capitals = {c.code: c.capital for c in world.countries}
    for e in events:
        nearest = min(capitals, key=lambda code: (capitals[code][0] - e.lat) ** 2 + (capitals[code][1] - e.lon) ** 2)
        assert index.locate(e.lon, e.lat) == nearest
    assert index.locate(0.0, -70.0) is None  # where the injected ocean points go


@pytest.fixture(scope="module")
def rugged_run(tmp_path_factory):
    """A small rugged world, rewritten and run through the whole pipeline."""
    base = tmp_path_factory.mktemp("rugged")
    world, out = str(base / "world"), str(base / "out")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GEOFLOW_SEED", "5")
        mp.setenv("GEOFLOW_SYNTH_USERS_PER_COUNTRY", "8")
        assert cli.main(["synth", "--out", world]) == 0
    workloads.rewrite_rugged(world, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GEOFLOW_PATHS_WORKDIR", out)
        assert cli.main(["run", "--config", os.path.join(world, "config.json")]) == 0
    return world, out


def test_each_injected_row_kind_is_counted_once(rugged_run):
    world, out = rugged_run
    errors, records = workloads.WORKLOADS["rugged"].check(world, out)
    assert errors == []
    with open(os.path.join(out, "ingest_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(out, "cleaning_stats.json"), encoding="utf-8") as fh:
        cleaning = json.load(fh)
    assert report["n_malformed"] == inputs.N_MALFORMED
    assert report["n_unlocatable_dropped"] == inputs.N_OCEAN
    assert cleaning["speed_removed"] == inputs.N_TELEPORT
    assert records == 12 * 8 * 50 + inputs.N_MALFORMED + inputs.N_OCEAN + inputs.N_TELEPORT


@pytest.mark.parametrize(
    "artifact, old, new, message",
    [
        ("edges_raw.csv", "raw_weight\n", "raw_weight\nZY,ZZ,1\n", "edges_raw.csv differs"),
        ("profiles.csv", "u000000,AA,", "u000000,AB,", "residence other than truth"),
        ("ingest_report.json", '"n_malformed": 48', '"n_malformed": 47', "malformed = injected"),
    ],
)
def test_corrupted_artifact_fails_the_check(rugged_run, tmp_path, artifact, old, new, message):
    world, out = rugged_run
    corrupt = str(tmp_path / "out")
    shutil.copytree(out, corrupt)
    path = os.path.join(corrupt, artifact)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))
    errors, _ = workloads.WORKLOADS["rugged"].check(world, corrupt)
    assert any(message in e for e in errors), errors


@pytest.mark.parametrize(
    "n, expected",
    [(1, (100.0, 0.0)), (3, (100.0, 2.0)), (19, (100.0, 18.0)), (20, (50.0, 9.0)),
     (100, (90.0, 89.0)), (1000, (99.0, 989.0)), (10000, (99.9, 9989.0))],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    assert run.tail(samples) == expected


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.stage_metrics", 0.0, 10.0, None, 9.0, 2048, {}],
        ["metrics.build_mobility_profiles", 1.0, 5.0, 0, 4.0, 0, {}],
        ["metrics.user_gyration_radii", 2.0, 4.5, 1, 2.5, 0, {}],
        ["metrics.user_gyration_radii", 6.0, 8.0, 0, 2.0, 0, {}],
    ]
    setup = [["synth.generate_events", 0.0, 3.0, None, 3.0, 0, {}]]
    m = layers.aggregate([spans], setup)
    assert m["cli.stage_metrics.wall_s"] == 10.0
    assert m["cli.stage_metrics.rss_growth_mb"] == 2.0
    assert m["metrics.build_mobility_profiles.self_s"] == 1.5
    assert m["metrics.user_gyration_radii.self_s"] == 4.5
    assert m["metrics.user_gyration_radii.calls"] == 2
    assert m["synth.generate_events.self_s"] == 3.0
    assert m["ingest.parse_events.calls"] == 0


def test_benchmark_json_names_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.units()
    assert set(layers.aggregate([], [])) | {"trace.overhead_s"} == set(layers.units())
    # BENCHMARK.json gates a subset; the rest run only by hand (README.md).
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


@pytest.mark.skipif(len(run.CPUS) < 2, reason="needs two CPUs to rotate over")
def test_spawn_rotates_the_child_over_the_cpus_and_reaps_it(tmp_path):
    # The child busy-loops for 1 s and prints every CPU set it was allowed to run on.
    script = (
        "import json, os, time\n"
        "seen, end = set(), time.time() + 1.0\n"
        "while time.time() < end:\n"
        "    seen.add(tuple(sorted(os.sched_getaffinity(0))))\n"
        "print(json.dumps(sorted(seen)))\n"
    )
    job = run.Job()
    log = tmp_path / "log.txt"
    assert run.spawn(["-c", script], {}, str(log), job, time.perf_counter() + 60)
    seen = {tuple(cpus) for cpus in json.loads(log.read_text().splitlines()[-1])}
    assert {(cpu,) for cpu in run.CPUS[:2]} <= seen
    assert job.wall >= 1.0 and job.cpu > 0.5 and job.rss_mib > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left unreaped
