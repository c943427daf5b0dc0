"""Event parsing, boundary validation, and country lookup."""

import importlib.util
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import ingest
from geoflow.ingest import BoundaryIndex, CountryBoundary, GeoEvent, load_boundaries
from helpers import events_of, table_of
from helpers import (
    ScalarBoundaryIndex,
    Trajectory,
    build_trajectories,
    ev,
    label_events,
    parse_events,
    point_in_rings_crossing,
)

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]


def ring(*pts):
    return [tuple(map(float, p)) for p in pts]


# ---------------------------------------------------------------- parsing


def test_parse_basic_line():
    report = parse_events(["u1,100,10.5,-3.25,web"])
    assert report.n_lines == 1
    assert report.n_malformed == 0
    assert not report.header_skipped
    e = report.events[0]
    assert (e.user_id, e.timestamp, e.lat, e.lon, e.source) == ("u1", 100, 10.5, -3.25, "web")
    assert e.country is None


def test_parse_line_with_country_column():
    report = parse_events(["u1,100,1.0,2.0,web,de"])
    assert report.events[0].country == "DE"


def test_parse_detects_header():
    report = parse_events(["user_id,timestamp,lat,lon,source", "u1,100,1.0,2.0,web"])
    assert report.header_skipped
    assert report.n_lines == 2
    assert len(report.events) == 1


def test_numeric_second_field_is_not_a_header():
    report = parse_events(["u1,100,1.0,2.0,web", "u2,200,1.0,2.0,web"])
    assert not report.header_skipped
    assert len(report.events) == 2


def test_parse_accounting_invariant():
    lines = [
        "user_id,timestamp,lat,lon,source",
        "u1,100,1.0,2.0,web",
        "",
        "u2,nope,1.0,2.0,web",
        "u3,300,95.0,2.0,web",
        "u4,400,1.0,181.0,web",
        "u5,500,1.0,2.0",
        "u6,600,1.0,2.0,web,deu",
        "u7,700,1.0,2.0,web",
    ]
    report = parse_events(lines)
    assert report.n_lines == len(lines)
    assert len(report.events) + report.n_malformed + 1 == report.n_lines
    assert [e.user_id for e in report.events] == ["u1", "u7"]


def test_parse_error_line_numbers_are_one_based():
    report = parse_events(["u1,100,1.0,2.0,web", "broken"])
    assert report.errors[0][0] == 2


def test_parse_rejects_out_of_range_coordinates():
    for line in ("u,1,90.0001,0,web", "u,1,-90.5,0,web", "u,1,0,180.5,web", "u,1,0,-200,web"):
        assert parse_events([line]).n_malformed == 1


def test_parse_rejects_negative_timestamp():
    assert parse_events(["u,-5,0,0,web"]).n_malformed == 1


def test_parse_accepts_boundary_coordinates():
    report = parse_events(["u,1,90.0,-180.0,web", "v,1,-90.0,180.0,web"])
    assert report.n_malformed == 0
    # -180 is canonicalized onto the +180 side of the seam
    assert report.events[0].lon == 180.0


def test_parse_keeps_the_first_errors_and_counts_every_one():
    lines = ["u1,100,1.0,2.0,web"] + [f"bad line {i}" for i in range(25)]
    report = parse_events(lines)
    assert report.n_malformed == 25
    assert [lineno for lineno, _ in report.errors] == list(range(2, 12))
    assert len(report.events) + report.n_malformed == report.n_lines


@given(st.integers(min_value=0, max_value=2**31), st.floats(-90, 90), st.floats(-180, 180))
def test_parse_round_trips_well_formed_lines(ts, lat, lon):
    report = parse_events([f"u,{ts},{lat!r},{lon!r},app"])
    assert report.n_malformed == 0
    e = report.events[0]
    assert (e.timestamp, e.lat) == (ts, lat)


# ---------------------------------------------------------------- boundaries


def test_ring_must_be_closed():
    with pytest.raises(ValueError, match="closed"):
        BoundaryIndex([CountryBoundary("AA", [[ring((0, 0), (1, 0), (1, 1), (0, 1))]][0:1])])


def test_ring_needs_four_vertices():
    with pytest.raises(ValueError):
        BoundaryIndex([CountryBoundary("AA", [[ring((0, 0), (1, 0), (0, 0))]])])


def test_ring_rejects_antimeridian_jump():
    jump = ring((179.0, 0), (-179.0, 0), (-179.0, 1), (179.0, 1), (179.0, 0))
    with pytest.raises(ValueError):
        BoundaryIndex([CountryBoundary("AA", [[jump]])])


@pytest.mark.parametrize("code", ["ABC", "A,B", "A", "", "A1", "A "])
def test_boundary_code_is_two_letters(code):
    with pytest.raises(ValueError, match="bad country code"):
        CountryBoundary(code, [[SQUARE]])


def test_duplicate_codes_rejected():
    poly = [[SQUARE]]
    with pytest.raises(ValueError, match="duplicate"):
        BoundaryIndex([CountryBoundary("AA", poly), CountryBoundary("AA", poly)])


def test_locate_inside_outside():
    index = BoundaryIndex([CountryBoundary("AA", [[SQUARE]])])
    assert index.locate(5.0, 5.0) == "AA"
    assert index.locate(15.0, 5.0) is None
    assert index.locate(-0.001, 5.0) is None


def test_locate_point_on_edge_and_vertex():
    index = BoundaryIndex([CountryBoundary("AA", [[SQUARE]])])
    assert index.locate(0.0, 5.0) == "AA"  # on a vertical edge
    assert index.locate(5.0, 0.0) == "AA"  # on a horizontal edge
    assert index.locate(0.0, 0.0) == "AA"  # on a vertex


def test_hole_is_outside_enclosing_ring():
    outer = SQUARE
    hole = ring((4, 4), (6, 4), (6, 6), (4, 6), (4, 4))
    index = BoundaryIndex([CountryBoundary("AA", [[outer, hole]])])
    assert index.locate(5.0, 5.0) is None  # inside the hole
    assert index.locate(2.0, 2.0) == "AA"  # between outer ring and hole
    assert index.locate(4.0, 5.0) == "AA"  # on the hole's edge: boundary is inclusive


def test_shared_border_goes_to_smaller_code():
    left = [[ring((0, 0), (10, 0), (10, 10), (0, 10), (0, 0))]]
    right = [[ring((10, 0), (20, 0), (20, 10), (10, 10), (10, 0))]]
    for order in ([("AA", left), ("AB", right)], [("AB", right), ("AA", left)]):
        index = BoundaryIndex([CountryBoundary(c, p) for c, p in order])
        assert index.locate(10.0, 5.0) == "AA"  # on the shared edge
        assert index.locate(9.0, 5.0) == "AA"
        assert index.locate(11.0, 5.0) == "AB"


def test_multipolygon_country():
    island_a = [ring((0, 0), (2, 0), (2, 2), (0, 2), (0, 0))]
    island_b = [ring((5, 5), (7, 5), (7, 7), (5, 7), (5, 5))]
    index = BoundaryIndex([CountryBoundary("AA", [island_a, island_b])])
    assert index.locate(1.0, 1.0) == "AA"
    assert index.locate(6.0, 6.0) == "AA"
    assert index.locate(3.5, 3.5) is None


def test_ray_cast_matches_independent_crossing_test():
    """Interior/exterior classification agrees with a second formulation."""
    concave = [
        ring((0, 0), (8, 0), (8, 3), (3, 3), (3, 5), (8, 5), (8, 8), (0, 8), (0, 0))
    ]
    index = BoundaryIndex([CountryBoundary("AA", [concave])])
    for i in range(-2, 23):
        for j in range(-2, 23):
            # offsets keep probe points safely away from all edges
            x, y = i * 0.45 + 0.017, j * 0.45 + 0.013
            want = point_in_rings_crossing(x, y, concave)
            got = index.locate(x, y) == "AA"
            assert got == want, (x, y)


def test_label_events_assigns_and_drops():
    index = BoundaryIndex([CountryBoundary("AA", [[SQUARE]])])
    events = [ev("u", 1, lat=5.0, lon=5.0), ev("u", 2, lat=50.0, lon=50.0)]
    labeled, dropped = label_events(events, index)
    assert [e.country for e in labeled] == ["AA"]
    assert dropped == 1


def test_label_events_keeps_existing_labels():
    index = BoundaryIndex([CountryBoundary("AA", [[SQUARE]])])
    events = [ev("u", 1, lat=5.0, lon=5.0, country="ZZ")]
    labeled, dropped = label_events(events, index)
    assert labeled[0].country == "ZZ"
    assert dropped == 0


def test_label_events_without_index_drops_unlabeled():
    events = [ev("u", 1, country="AA"), ev("u", 2)]
    labeled, dropped = label_events(events, None)
    assert len(labeled) == 1 and dropped == 1


def test_load_boundaries_geojson(tmp_path):
    gj = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"code": "AA"},
                "geometry": {"type": "Polygon", "coordinates": [list(map(list, SQUARE))]},
            },
            {
                "type": "Feature",
                "properties": {"code": "BB"},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [[[20, 0], [22, 0], [22, 2], [20, 2], [20, 0]]],
                        [[[30, 0], [32, 0], [32, 2], [30, 2], [30, 0]]],
                    ],
                },
            },
        ],
    }
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps(gj), encoding="utf-8")
    boundaries = load_boundaries(str(path))
    index = BoundaryIndex(boundaries)
    assert index.locate(5.0, 5.0) == "AA"
    assert index.locate(21.0, 1.0) == "BB"
    assert index.locate(31.0, 1.0) == "BB"


@pytest.mark.parametrize("geometry", [{"type": "Polygon", "coordinates": []}, {"type": "MultiPolygon", "coordinates": [[]]}])
def test_polygon_without_rings_is_rejected(tmp_path, geometry):
    square = {"type": "Feature", "properties": {"code": "AA"}, "geometry": {"type": "Polygon", "coordinates": [SQUARE]}}
    empty = {"type": "Feature", "properties": {"code": "bb"}, "geometry": geometry}
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [square, empty]}), encoding="utf-8")
    with pytest.raises(ValueError, match="^boundary feature 1: bb: polygon has no rings$"):
        load_boundaries(str(path))


GRID = 1 / 64  # vertices on a dyadic grid, so edge midpoints lie exactly on their edges


def _snap(x, y):
    return (round(x / GRID) * GRID, round(y / GRID) * GRID)


def _box(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]


def codes_of(index, lons, lats):
    """The country code of each point from the array labeling, None for none."""
    return [index._codes[k] if k >= 0 else None for k in index._labels(lons, lats).tolist()]


@settings(max_examples=12, deadline=None)
@given(
    spikes=st.integers(30, 60),
    r_out=st.floats(3.0, 6.0),
    r_in=st.floats(0.3, 0.8),
    phase=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_labeling_matches_scalar_oracle(spikes, r_out, r_in, phase, seed):
    """Array labeling makes the scalar crossing-number test's every decision."""
    star = [
        _snap(r * math.cos(t), r * math.sin(t))
        for k in range(2 * spikes)
        for r, t in [((r_out if k % 2 == 0 else r_out * r_in), phase + math.pi * k / spikes)]
    ]
    star.append(star[0])
    h = _snap(r_out * r_in / 2, 0.0)[0]
    boundaries = [
        CountryBoundary("CC", [[_box(8.0, -3.0, 12.0, 3.0)]]),  # shares x=8 with BB
        CountryBoundary("AA", [[star, _box(-h, -h, h, h)]]),  # star with a square hole
        CountryBoundary("BB", [[_box(2.0, -3.0, 8.0, 3.0)], [_box(20.0, 0.0, 24.0, 4.0)]]),
        # Notches that edge extensions cross: a U open at the top, a C open to the right.
        CountryBoundary("DD", [[ring((14, -3), (18, -3), (18, 3), (17, 3), (17, -1), (15, -1), (15, 3), (14, 3),
                                     (14, -3))]]),
        CountryBoundary("EE", [[ring((26, -3), (30, -3), (30, -2), (28, -2), (28, 2), (30, 2), (30, 3), (26, 3),
                                     (26, -3))]]),
    ]
    rings = [r for b in boundaries for poly in b.polygons for r in poly]
    rng = np.random.default_rng(seed)
    points = [v for r in rings for v in r]
    points += [((x1 + x2) / 2, (y1 + y2) / 2) for r in rings for (x1, y1), (x2, y2) in zip(r, r[1:])]
    for (x1, y1), (x2, y2) in zip(star, star[1:]):  # a third of the way along, and one ulp to each side
        x, y = x1 + (x2 - x1) / 3, y1 + (y2 - y1) / 3
        points += [(x, y), (math.nextafter(x, -math.inf), y), (math.nextafter(x, math.inf), y)]
    points += [(x, y) for x in np.arange(13.0, 31.5, 0.5) for y in np.arange(-4.0, 4.5, 0.5)]
    points += [(8.0, y) for y in np.linspace(-4.0, 4.0, 33)]
    points += [(100.0, 50.0), (-150.0, -80.0), (16.0, 2.0), (22.0, 10.0)]
    points += [tuple(p) for p in rng.uniform(-r_out, r_out, size=(1200, 2))]
    points += [tuple(p) for p in rng.uniform((-7.0, -7.0), (25.0, 7.0), size=(300, 2))]
    lons = [float(x) for x, _ in points]
    lats = [float(y) for _, y in points]
    xs, ys = zip(*star)
    in_star_box = sum(1 for x, y in points if min(xs) <= x <= max(xs) and min(ys) <= y <= max(ys))
    assert in_star_box > ingest._BLOCK_PAIRS // (len(star) + 4)  # more than one block

    oracle = ScalarBoundaryIndex(boundaries)
    want = [oracle.locate(x, y) for x, y in zip(lons, lats)]
    index = BoundaryIndex(boundaries)
    assert codes_of(index, lons, lats) == want
    assert codes_of(index, [], []) == []
    for i in range(0, len(points), 40):
        assert index.locate(lons[i], lats[i]) == want[i]
    events = [ev(f"u{i}", i, lat=y, lon=x) for i, (x, y) in enumerate(zip(lons, lats))]
    for i in range(0, len(events), 7):
        events[i] = ev(f"u{i}", i, country="ZZ")  # pre-labeled: keeps its label
    expect = [e.country or w for e, w in zip(events, want)]
    labeled, dropped = label_events(events, index)
    assert [e.country for e in labeled] == [c for c in expect if c is not None]
    assert dropped == expect.count(None)


def _near(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


@settings(max_examples=25, deadline=None)
@given(
    heights=st.lists(st.integers(1, 127).map(lambda k: k / 8), min_size=200, max_size=260),
    picks=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_labeling_matches_scalar_oracle_at_band_cuts(heights, picks, seed):
    """Points on every band cut and one ulp to each side, a vertex and a horizontal edge lying on a cut, rings
    of zero height and the top edge: the multi-band path makes the scalar test's every decision."""

    def world(vertex_y, flat_y):
        h = [*heights]
        h[1], h[3], h[5], h[6] = 16.0, vertex_y, flat_y, flat_y  # the top; a vertex and a horizontal edge on cuts
        top = [(i / 4, y) for i, y in enumerate(h)]
        skyline = [*top, (top[-1][0], 0.0), (0.0, 0.0), top[0]]  # a top chain closed along y = 0
        hole = [(1.0, flat_y), (2.0, flat_y), (3.0, flat_y), (1.0, flat_y)]  # zero height, on a cut
        line = [(10.0 + i / 8, flat_y) for i in range(151)]
        flat = [*line, *line[-2::-1]]  # 300 edges there and back: zero height, several bands
        return [CountryBoundary("BB", [[skyline, hole]]), CountryBoundary("AA", [[flat]])], top

    cuts = BoundaryIndex(world(8.0, 8.0)[0])._entries[1][4]  # bands depend on the bbox and edge count only
    assert len(cuts) >= 2
    boundaries, top = world(cuts[picks[0] % len(cuts)], cuts[picks[1] % len(cuts)])
    index = BoundaryIndex(boundaries)
    (_, _, _, flat_edges, flat_cuts, _), (_, lo, hi, edges, banded_cuts, _) = index._entries
    assert np.array_equal(banded_cuts, cuts) and len(flat_cuts) >= 2 and hi[1] == 16.0
    flat_y = top[5][1]

    rng = np.random.default_rng(seed)
    xs = [x for x, _ in top]
    points = []
    for c in [0.0, *cuts, 16.0]:  # each cut, the bottom and the top edge, and one ulp to each side
        on_cut = [x for x, y in top if y == c]
        for x in [*on_cut, *rng.choice(xs, 4), *rng.uniform(-0.5, xs[-1] + 0.5, 3)]:
            points += [(x, y) for y in _near(c)]
    corners = [top[1], top[3], top[5], top[6], ((top[5][0] + top[6][0]) / 2, flat_y), (2.5, flat_y), (12.5, flat_y)]
    points += [(x, y) for cx, cy in corners for x in _near(cx) for y in _near(cy)]
    points += [(x, y) for x in (1.0, 3.0, 3.25, 10.0, 28.75, 29.0, 9.875) for y in _near(flat_y)]
    points += [tuple(p) for p in rng.uniform((-1.0, -1.0), (xs[-1] + 1.0, 17.0), size=(150, 2))]
    lons, lats = [float(x) for x, _ in points], [float(y) for _, y in points]
    inside = [y for x, y in points if lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]]
    assert len(np.unique(np.searchsorted(cuts, inside, "right"))) == len(cuts) + 1  # points in every band

    sizes = []

    def spy(edges, x, y, contains=ingest._contains):
        sizes.append(len(edges))
        return contains(edges, x, y)

    with mock.patch.object(ingest, "_contains", spy):
        got = codes_of(index, lons, lats)
    assert min(sizes) < len(edges) < len(flat_edges)  # only a band's edges can be fewer than the outline's
    oracle = ScalarBoundaryIndex(boundaries)
    assert got == [oracle.locate(x, y) for x, y in zip(lons, lats)]
    assert got.count("AA") > 0 and got.count("BB") > 0


# ---------------------------------------------------------------- trajectories


def test_build_trajectories_groups_and_sorts():
    events = [
        ev("b", 30),
        ev("a", 20),
        ev("a", 10),
        ev("b", 5),
    ]
    trajs = build_trajectories(events)
    assert list(trajs) == ["a", "b"]
    assert [e.timestamp for e in trajs["a"].events] == [10, 20]
    assert [e.timestamp for e in trajs["b"].events] == [5, 30]


def test_build_trajectories_stable_for_equal_timestamps():
    first = ev("u", 100, lat=1.0)
    second = ev("u", 100, lat=2.0)
    trajs = build_trajectories([first, second])
    assert trajs["u"].events == [first, second]


@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 50)), max_size=30))
def test_build_trajectories_partitions_events(pairs):
    events = [ev(u, ts) for u, ts in pairs]
    trajs = build_trajectories(events)
    assert sum(len(t.events) for t in trajs.values()) == len(events)
    for user, t in trajs.items():
        assert t.user_id == user
        assert all(e.user_id == user for e in t.events)
        stamps = [e.timestamp for e in t.events]
        assert stamps == sorted(stamps)


@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6)), max_size=60),
    st.sampled_from([np.int16, np.int32]),
    st.sampled_from([1, 3, 7, ingest.BLOCK_ROWS]),
)
def test_trajectory_order_is_the_lexsort(rows, dtype, block):
    """Ties of user and timestamp, unused codes and one-row users, in any order and as a time-ordered stream (whose
    users' rows are in time order already): the blocked counting sort is np.lexsort, which it would not be if a
    block of its last pass split a user."""
    for stream in (rows, sorted(rows, key=lambda row: row[1])):
        user = np.array([u for u, _ in stream], dtype=dtype)
        timestamp = np.array([t for _, t in stream], dtype=np.int64)
        zero = np.zeros(len(stream))
        events = ingest.EventTable([f"u{k}" for k in range(41)], ["s"], [], user, timestamp, zero, zero, user, user)
        with mock.patch.object(ingest, "BLOCK_ROWS", block):
            order = ingest.build_trajectories(events)
        assert order.tolist() == np.lexsort((timestamp, user)).tolist()


# ---------------------------------------------------------------- columnar table

FIELDS = ["u1", " u2 ", "", "100", "1.50", "+3", "007", "-5", "190", "-180", "90.0", "1e1", "nan", "xx", "de", " web "]


@given(st.lists(st.lists(st.sampled_from(FIELDS), min_size=4, max_size=7).map(",".join), max_size=25))
def test_table_parser_matches_the_object_parser(lines):
    """Same checks, same errors, same values: canonical or not, every field lands where the object parser puts it."""
    got, want = ingest.parse_events(lines), parse_events(lines)
    assert events_of(got.events) == want.events
    assert (got.errors, got.n_lines, got.header_skipped, got.n_malformed) == (
        want.errors, want.n_lines, want.header_skipped, want.n_malformed
    )


def test_parse_rejects_timestamps_beyond_int64():
    report = ingest.parse_events([f"u,{2**63 - 1},0,0,web", f"u,{2**63},0,0,web"])
    assert (len(report.events), report.n_malformed) == (1, 1)
    assert report.errors == [(2, f"timestamp beyond int64: {2**63}")]
    assert report.events.timestamp.tolist() == [2**63 - 1]


def test_table_parser_counts_undecodable_bytes():
    report = ingest.parse_events([b"u,1,0,0,web", b"\xff,2,0,0,web", b"v,3,0,0,web,de"])
    assert (report.n_malformed, report.errors) == (1, [(2, "invalid UTF-8")])
    assert events_of(report.events) == [ev("u", 1, source="web"), ev("v", 3, source="web", country="DE")]


# ---------------------------------------------------------------- block path


def _perfbench_malformed():
    """The 10 kinds of malformed line the benchmark's rugged workload injects."""
    spec = importlib.util.spec_from_file_location("inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [module._malformed(kind, "u7", 1330000000, "app_web").encode() for kind in range(10)]


# Whole lines the block path must leave to the line loop.
HOSTILE = [
    b"u1,5,1.0,2.0,web\r", b"u1\r,5,1.0,2.0,web,de\r", b"u1,5\r,1.0,2.0,web",  # CR
    b"u1,5,1.0,2.0,\tweb", b"\tu1,5,1.0,2.0,web,DE", b"u1,5,1.0,2.0,web,\x1fde", b"u\x001,5,1.0,2.0,web",
    "\u00fc,5,1.0,2.0,web".encode(), "u1,5,1.0,2.0,w\u00e9b,de".encode(), "u1,5,1.0,2.0,web,\u00c4\u00d6".encode(),
    "u1,\uff15,1.0,2.0,web".encode(), "u1,5,1.0,2.0,web,\u00df\u00df".encode(),
    b"u\xff,5,1.0,2.0,web", b"u1,5,1.0,2.0,web,d\xc3",  # invalid UTF-8
    b"", b"   ", b"u1,5,1.0,2.0", b"u1,5,1.0,2.0,web,DE,", b"u1,,,,,,,", b"user_id,timestamp,lat,lon,source",
    *_perfbench_malformed(),
]
# Lines of 5 or 6 fields, each field canonical or an odd spelling that either path must read the same way.
FIELD_LINES = st.builds(
    lambda *fields: ",".join(field for field in fields if field is not None).encode(),
    st.sampled_from(["u1", "u2", "u10", "a b", " u1 ", "u2 ", "", " "]),
    st.one_of(
        st.integers(0, 2**63 - 1).map(str),
        st.sampled_from(["+5", "1_000", " 7 ", "-0", "-1", str(2**63), f"-{2**63}", "5.0", "nan", "x"]),
    ),
    st.one_of(
        st.floats(-90.0, 90.0).map(repr),
        st.sampled_from(["-0.0", "90", "-90.0", "1_0.5", " 1.5", "nan", "inf", "90.5", "1e1", "-1E-300", ""]),
    ),
    st.one_of(
        st.floats(-180.0, 180.0).map(repr),
        st.sampled_from(["-180.0", "-180", "-1.8e2", "180", "-0.0", "180.5", "-inf", "0x1"]),
    ),
    st.sampled_from(["web", "app_mobile", "", " web ", "a b"]),
    st.sampled_from([None, None, "", "DE", "fr", " fr ", "d", "d1", "  ", "D E"]),
)


def report_bits(report):
    """Everything a ParseReport holds, with each column as its dtype and bytes."""
    e = report.events
    columns = [(c.dtype.str, c.tobytes()) for c in (e.user, e.timestamp, e.lat, e.lon, e.source, e.country)]
    counts = (report.n_lines, report.header_skipped, report.n_malformed)
    return columns, e.users, e.sources, e.countries, report.errors, counts


@given(
    st.lists(st.one_of(FIELD_LINES, FIELD_LINES, FIELD_LINES, st.sampled_from(HOSTILE)), max_size=30),
    st.sampled_from([1, 3, ingest.BLOCK_ROWS]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300)
def test_block_path_matches_the_line_loop(lines, rows, header, last_lf):
    """Whichever blocks take the block path, a binary file parses exactly as its lines do in the line loop."""
    data = b"\n".join([b"user_id,timestamp,lat,lon,source"] * header + lines) + b"\n" * last_lf
    want = ingest.parse_events(io.BytesIO(data).readlines())
    with mock.patch.object(ingest, "BLOCK_ROWS", rows):
        got = ingest.parse_events(io.BytesIO(data))
    assert report_bits(got) == report_bits(want)


def test_block_path_checks_the_fields_of_each_line():
    """Lines of 7 and 5 fields hold 12 fields, two valid rows of 6 if they were read as one run of fields."""
    report = ingest.parse_events(io.BytesIO(b"u0,1,0.0,0.0,web,\nu1,5,1.0,2.0,web,DE,u2\n5,1.0,2.0,web,fr\n"))
    assert (len(report.events), report.n_malformed) == (1, 2)
    assert report.errors == [(2, "expected 5 or 6 fields, got 7"), (3, "timestamp not an integer: '1.0'")]


@pytest.mark.parametrize("header", [False, True])
def test_canonical_lines_take_the_block_path(header):
    """Only line 1, and then only the block of a malformed line, reach the line loop's _parse_line."""
    rows = ingest.BLOCK_ROWS
    lines = [f"u{i % 7},{i},{i % 90}.5,{-i % 180}.25,web,{'DE' if i % 3 else ''}\n" for i in range(2 * rows + 10)]
    lines[:header] = ["user_id,timestamp,lat,lon,source,country\n"] * header
    for bad, calls in ((None, 1 - header), (rows + 5, 1 - header + rows)):  # a row of the second block
        if bad is not None:
            lines[bad - 1] = "u1,5,95.5,2.0,web,\n"
        data = "".join(lines).encode()
        with mock.patch.object(ingest, "_parse_line", wraps=ingest._parse_line) as spy:
            got = ingest.parse_events(io.BytesIO(data))
        assert spy.call_count == calls
        assert report_bits(got) == report_bits(ingest.parse_events(lines))
        assert got.errors == ([] if bad is None else [(bad, "latitude out of range: 95.5")])


class _Pipe(io.RawIOBase):
    """A binary stream that cannot seek, read at most 1,000 bytes at a time."""

    def __init__(self, data):
        self.data, self.at = data, 0

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), len(self.data) - self.at, 1000)
        buffer[:n] = self.data[self.at : self.at + n]
        self.at += n
        return n


@pytest.mark.parametrize("rows", [3, 4096])
def test_a_stream_that_cannot_seek_parses_as_a_file(rows):
    """Without a line count up front, the columns grow as the rows come, and hold the same report."""
    lines = [f"u{i % 7},{i},{i % 90}.5,{-i % 180}.25,web,{'DE' if i % 3 else ''}\n".encode() for i in range(9_000)]
    lines[4_321] = b"u1,5,95.5,2.0,web,\n"
    data = b"".join(lines)
    with mock.patch.object(ingest, "BLOCK_ROWS", rows):
        got = ingest.parse_events(io.BufferedReader(_Pipe(data)))
        file = ingest.parse_events(io.BytesIO(data))
    assert report_bits(got) == report_bits(file) == report_bits(ingest.parse_events(lines))
    assert (len(got.events), got.n_malformed) == (8_999, 1)


@pytest.mark.parametrize("rows", [3, 4096])
@pytest.mark.parametrize("malformed", [False, True])
def test_vocabularies_past_int16_widen_their_codes(rows, malformed):
    """40,000 users and sources, one line each: past 2**15 names mid-parse, the code columns widen to int32."""
    lines = [f"u{i * 7919 % 40_000:05d},{i},1.5,2.5,app{i * 104_729 % 40_000}\n".encode() for i in range(40_000)]
    if malformed:
        lines[31_000] = b"u1,5,95.5,2.0,web\n"  # 4,096-line blocks: in the block where the users pass 2**15
    want = ingest.parse_events(lines)
    with mock.patch.object(ingest, "BLOCK_ROWS", rows):
        got = ingest.parse_events(io.BytesIO(b"".join(lines)))
    assert report_bits(got) == report_bits(want)
    assert got.events.user.dtype == got.events.source.dtype == np.int32 and got.events.country.dtype == np.int16
    assert len(got.events) == 40_000 - malformed and got.events.users == sorted(got.events.users)


@given(st.lists(st.tuples(st.floats(-5.0, 25.0), st.floats(-5.0, 15.0), st.sampled_from([None, "AA", "ZZ"])), max_size=40))
def test_table_labeling_matches_the_object_labeling(points):
    other = ring((10, 0), (20, 0), (20, 10), (10, 10), (10, 0))  # shares the x = 10 edge with AA
    index = BoundaryIndex([CountryBoundary("AA", [[SQUARE]]), CountryBoundary("CC", [[other]])])
    table = table_of([ev(f"u{i % 3}", i, lat=y, lon=x, country=c) for i, (x, y, c) in enumerate(points)])
    copy = np.arange(len(table))  # label_events drops rows in place, so each call gets a copy (a slice is a view)
    labeled, dropped = ingest.label_events(table.take(copy), index)
    want, want_dropped = label_events(events_of(table), index)
    assert (events_of(labeled), dropped) == (want, want_dropped)
    assert labeled.countries == sorted(labeled.countries)
    kept, dropped = ingest.label_events(table.take(copy), None)
    assert events_of(kept) == [e for e in events_of(table) if e.country is not None]
    assert dropped == sum(c is None for _, _, c in points)


def test_label_events_drops_the_unlocatable_rows_in_place():
    """The labeled table is the caller's, its columns compacted where they are: no second table is held."""
    index = BoundaryIndex([CountryBoundary("AA", [[SQUARE]])])
    table = table_of([ev("u", t, lat=5.0 + 50.0 * (t % 2), lon=5.0) for t in range(8)])  # odd times: the ocean
    timestamp = table.timestamp
    labeled, dropped = ingest.label_events(table, index)
    assert labeled is table and dropped == 4
    assert np.shares_memory(labeled.timestamp, timestamp) and labeled.timestamp.tolist() == [0, 2, 4, 6]
    assert [labeled.countries[c] for c in labeled.country.tolist()] == ["AA"] * 4


def test_boundary_index_rejects_a_polygon_without_rings():
    with pytest.raises(ValueError, match="^AA: polygon has no rings$"):
        BoundaryIndex([CountryBoundary("AA", [[]])])


def test_empty_ring_names_its_feature(tmp_path):
    empty = {"type": "Feature", "properties": {"code": "AA"}, "geometry": {"type": "Polygon", "coordinates": [[]]}}
    path = tmp_path / "b.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [empty]}), encoding="utf-8")
    with pytest.raises(ValueError, match="^boundary feature 0: AA: ring has 0 vertices, need >= 4$"):
        load_boundaries(str(path))
