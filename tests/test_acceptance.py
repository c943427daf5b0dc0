"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single `criterion N: PASS` line after its assertions
hold, so a verbose run reads as a seven-line scorecard. Tolerances and
runtime budgets are fixed here and are not meant to be loosened.
"""

import filecmp
import json
import math
import os
import time

import pytest

import helpers as clean_mod
from geoflow import clean, ingest
from geoflow.cli import main
from geoflow.community import hierarchical_partition, modularity, optimize_partition
from geoflow.ingest import BoundaryIndex, GeoEvent
from geoflow.models import capital_distances, fit_gravity, fit_power_law
from geoflow.sphere import haversine_km, normalize_lon
from geoflow.synth import (
    expected_flows,
    generate_events,
    make_world,
    world_boundaries,
)
from helpers import (
    brute_best_q,
    build_trajectories,
    events_of,
    groups_of,
    label_events,
    nested_fixture,
    random_digraph,
    sample_power_law,
    set_partitions,
    table_of,
)


def run_cli(*argv):
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("GEOFLOW_")}
    try:
        return main(list(argv))
    finally:
        os.environ.update(saved)


# ---------------------------------------------------------------------------


def test_criterion_1_gravity_recovery_on_planted_flows():
    t0 = time.perf_counter()
    world = make_world(20, A=2.0, alpha=0.8, beta=0.6, gamma=1.0)
    capitals = {c.code: c.capital for c in world.countries}
    distances = capital_distances(capitals)
    assert min(d for pair, d in distances.items() if pair[0] != pair[1]) >= 200.0
    flows = expected_flows(world)
    populations = {c.code: float(c.population) for c in world.countries}
    fit = fit_gravity(flows, populations, distances)
    assert abs(fit.alpha - 0.8) < 1e-6
    assert abs(fit.beta - 0.6) < 1e-6
    assert abs(fit.gamma - 1.0) < 1e-6
    assert fit.r2 == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS — alpha={fit.alpha:.9f} beta={fit.beta:.9f} "
        f"gamma={fit.gamma:.9f} r2={fit.r2} ({elapsed:.2f}s)"
    )


def test_criterion_2_power_law_exponent_recovery():
    t0 = time.perf_counter()
    fit_162 = fit_power_law(sample_power_law(0, 1.62, 1.0, 1e4, 100_000), xmin=1.0)
    assert abs(fit_162.exponent - 1.62) <= 0.02
    # the shallower exponent needs a wider sampling range: truncating a
    # beta = 1.25 tail at four decades biases any consistent estimator by
    # ~0.09, far outside the acceptance band, so the planted range is
    # widened until the truncation bias is negligible
    fit_125 = fit_power_law(sample_power_law(0, 1.25, 1.0, 1e12, 100_000), xmin=1.0)
    assert abs(fit_125.exponent - 1.25) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"criterion 2: PASS — beta_hat(1.62)={fit_162.exponent:.4f} "
        f"beta_hat(1.25)={fit_125.exponent:.4f} ({elapsed:.2f}s)"
    )


def test_criterion_3_planted_partition_recovery_and_exhaustive_q():
    t0 = time.perf_counter()
    # 20 nodes in 4 planted blocks of 5, intra weight 10, inter 0.1
    nodes = [f"n{i:02d}" for i in range(20)]
    blocks = [sorted(nodes[i : i + 5]) for i in range(0, 20, 5)]
    edges = {}
    for u in nodes:
        for v in nodes:
            if u != v:
                same = int(u[1:]) // 5 == int(v[1:]) // 5
                edges[(u, v)] = 10.0 if same else 0.1
    part = optimize_partition(edges, restarts=20)
    assert groups_of(part.assignment) == blocks

    # every 8-node fixture: optimizer Q == exhaustive max over all 4140 partitions
    eight = [f"n{i}" for i in range(8)]
    assert sum(1 for _ in set_partitions(eight)) == 4140
    for seed in range(9):
        fixture = random_digraph(seed, 8)
        found = optimize_partition(fixture, restarts=20).q
        exhaustive = brute_best_q(fixture, sorted({u for e in fixture for u in e}))
        assert abs(found - exhaustive) <= 1e-12, f"fixture seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 3: PASS — planted 4-block recovery exact; 9 eight-node fixtures "
        f"match 4140-partition enumeration to 1e-12 ({elapsed:.2f}s)"
    )


def test_criterion_4_modularity_invariants_and_nested_hierarchy():
    worst = 0.0
    for seed in range(100):
        edges = random_digraph(seed, 2 + seed % 11)
        nodes = sorted({u for e in edges for u in e})
        q = modularity(edges, {node: 0 for node in nodes})
        worst = max(worst, abs(q))
    assert worst <= 1e-12

    edges, supers, subs = nested_fixture()
    hierarchy = hierarchical_partition(edges, max_levels=3, restarts=20)
    assert groups_of(hierarchy.levels[0].assignment) == supers
    assert groups_of(hierarchy.levels[1].assignment) == subs
    print(
        f"criterion 4: PASS — max |Q(all-in-one)| = {worst:.2e} over 100 digraphs; "
        f"nested fixture resolves 2 super-blocks then 4 sub-blocks"
    )


def test_criterion_5_pipeline_determinism_and_truth_recovery(tmp_path, monkeypatch):
    dirs = []
    elapsed = 0.0
    for name in ("a", "b"):
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        t0 = time.perf_counter()
        assert run_cli("synth", "--out", "world") == 0
        assert run_cli("run", "--config", os.path.join("world", "config.json")) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        dirs.append(cwd / "world")
    monkeypatch.chdir(tmp_path)

    # byte-identical artifacts across independent runs
    mismatch = []
    for sub in ("", "artifacts"):
        a, b = dirs[0] / sub, dirs[1] / sub
        names = sorted(p.name for p in a.iterdir() if p.is_file())
        assert names == sorted(p.name for p in b.iterdir() if p.is_file())
        match, bad, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        mismatch += bad + errors
    assert mismatch == []

    world = dirs[0]
    truth = json.loads((world / "truth.json").read_text())
    bots = set(truth["bots"])

    # 100% of planted residences recovered for every surviving user
    rows = (world / "artifacts" / "profiles.csv").read_text().splitlines()[1:]
    assigned = {r.split(",")[0]: r.split(",")[1] for r in rows}
    humans = {u for u in truth["residences"] if u not in bots}
    assert set(assigned) == humans
    assert all(assigned[u] == truth["residences"][u] for u in assigned)

    # mobility rates within 3-sigma binomial bounds of the planted rates
    rows = (world / "artifacts" / "mobility_profiles.csv").read_text().splitlines()[1:]
    for row in rows:
        code, n_residents, rate = row.split(",")[0], int(row.split(",")[1]), float(row.split(",")[2])
        p = truth["planted_mobility"][code]
        n = truth["n_humans"][code]
        assert n_residents == n
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(rate * n_residents - n * p) <= 3.0 * sigma, code

    # signed balances cancel globally, and exactly so: every edge weight
    # enters the global sum once as inflow and once as outflow, so the
    # rounding-free total is identically zero
    terms = []
    for row in (world / "artifacts" / "edges.csv").read_text().splitlines()[1:]:
        est = float(row.split(",")[3])
        terms += [est, -est]
    assert math.fsum(terms) == 0.0
    # the per-country column is rounded country by country; it must agree
    # with its own inflow/outflow columns and cancel to rounding noise
    rows = (world / "artifacts" / "balances.csv").read_text().splitlines()[1:]
    for row in rows:
        _, inflow, outflow, balance = row.split(",")
        assert float(balance) == float(inflow) - float(outflow)
    assert abs(math.fsum(float(r.split(",")[3]) for r in rows)) < 1e-9

    # every normalized daily series peaks at exactly 100
    for direction in ("outbound", "inbound"):
        series = {}
        for row in (world / "artifacts" / f"daily_{direction}.csv").read_text().splitlines()[1:]:
            code, _, _, norm = row.split(",")
            series.setdefault(code, []).append(float(norm))
        for code, values in series.items():
            assert max(values) == 100.0, (direction, code)

    print(
        f"criterion 5: PASS — byte-identical reruns; {len(assigned)}/{len(humans)} residences "
        f"recovered; balances sum to 0.0; daily peaks at 100 ({elapsed:.2f}s per run)"
    )


def test_criterion_6_cleaning_properties_on_planted_bot_corpus():
    world = make_world(6, seed=3)
    events, truth = generate_events(world, users_per_country=100, events_per_user=20, trip_rate=0.5)
    index = BoundaryIndex(world_boundaries(world))
    labeled, dropped = label_events(events, index)
    assert dropped == 0

    # inject teleports so the speed filter has real work to do
    injected = 0
    for user_id in sorted(truth.residences)[::24]:
        base = next(e for e in labeled if e.user_id == user_id)
        labeled.append(
            GeoEvent(
                user_id,
                base.timestamp + 1,
                -base.lat,
                normalize_lon(base.lon + 180.0),
                base.source,
                base.country,
            )
        )
        injected += 1
    trajectories = build_trajectories(labeled)
    kept = []
    removed = 0
    for user_id in sorted(trajectories):
        filtered, n = clean_mod.speed_filter(trajectories[user_id], 1000.0)
        removed += n
        kept.extend(filtered.events)
    assert removed == injected

    # exhaustive: no surviving consecutive pair implies > 1000 km/h
    for trajectory in build_trajectories(kept).values():
        for a, b in zip(trajectory.events, trajectory.events[1:]):
            km = haversine_km((a.lat, a.lon), (b.lat, b.lon))
            assert km / ((b.timestamp - a.timestamp) / 3600.0) <= 1000.0

    # idempotent: a second pass removes nothing
    for trajectory in build_trajectories(kept).values():
        _, n = clean_mod.speed_filter(trajectory, 1000.0)
        assert n == 0

    retained, cleaned, stats = clean_mod.source_popularity_filter(kept, 0.95, "users")
    bot_sources = {truth.sources[u] for u in truth.bots}
    assert not any(e.source in bot_sources for e in cleaned)
    assert {e.user_id for e in cleaned} == set(truth.residences) - set(truth.bots)
    retained2, cleaned2, _ = clean_mod.source_popularity_filter(cleaned, 0.95, "users")
    assert cleaned2 == cleaned

    # the shipping table filters on the same injected world keep exactly these rows, and are idempotent too
    table, table_dropped = ingest.label_events(table_of(events), index)
    assert table_dropped == 0 and events_of(table) == labeled[: len(events)]
    table = table_of(labeled)
    table = table.take(ingest.build_trajectories(table))
    keep, table_removed = clean.speed_filter(table, 1000.0)
    table = table.take(keep)
    assert table_removed == removed and events_of(table) == kept
    assert clean.speed_filter(table, 1000.0)[1] == 0
    table_retained, keep, _ = clean.source_popularity_filter(table, 0.95, "users")
    table = table.take(keep)
    assert table_retained == retained and events_of(table) == cleaned
    assert clean.source_popularity_filter(table, 0.95, "users")[1].all()
    print(
        f"criterion 6: PASS — {removed} teleports removed, no fast pair survives; "
        f"{len(bot_sources)} bot sources all filtered; "
        f"{len({e.user_id for e in cleaned})}/600 users survive; both filters idempotent"
    )


def test_criterion_7_fitted_values_match_generating_parameters():
    world = make_world(15, A=3.0, alpha=0.89, beta=0.69, gamma=1.1)
    flows = expected_flows(world)
    populations = {c.code: float(c.population) for c in world.countries}
    distances = capital_distances({c.code: c.capital for c in world.countries})
    gravity = fit_gravity(flows, populations, distances)
    assert abs(gravity.alpha - 0.89) <= 0.05
    assert abs(gravity.beta - 0.69) <= 0.05
    assert abs(gravity.gamma - 1.1) <= 0.05

    displacement = fit_power_law(sample_power_law(0, 1.62, 1.0, 1e4, 100_000), xmin=1.0)
    assert abs(displacement.exponent - 1.62) <= 0.05
    print(
        f"criterion 7: PASS — gravity ({gravity.alpha:.4f}, {gravity.beta:.4f}, "
        f"{gravity.gamma:.4f}) vs (0.89, 0.69, 1.1); displacement beta "
        f"{displacement.exponent:.4f} vs 1.62"
    )
