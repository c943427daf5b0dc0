"""Synthetic worlds: planted flows, event generation, and recorded truth."""

import calendar
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from geoflow import ingest, synth, tables
from geoflow.ingest import BoundaryIndex
from geoflow.models import capital_distances
from geoflow.sphere import haversine_km
from geoflow.synth import (
    HUMAN_SOURCES,
    SynthCountry,
    SynthWorld,
    event_blocks,
    event_csv,
    event_lines,
    expected_flows,
    generate_events,
    make_world,
    world_boundaries,
)
from helpers import events_of, parse_events, sample_power_law

YEAR_START = int(datetime(2012, 1, 1, tzinfo=timezone.utc).timestamp())
YEAR_SECONDS = 366 * 86400  # 2012 is a leap year


def small_world(**kwargs):
    defaults = dict(n_countries=4, seed=0, A=2.0, alpha=0.9, beta=0.7, gamma=1.1)
    return make_world(**(defaults | kwargs))


# ---------------------------------------------------------------- planted flows


def test_expected_flows_match_formula():
    world = small_world(n_blocks=2, block_boost=3.0)
    flows = expected_flows(world)
    by_code = world.by_code()
    distances = capital_distances({c.code: c.capital for c in world.countries})
    assert set(flows) == {(i, j) for i in by_code for j in by_code if i != j}
    for (i, j), f in flows.items():
        ci, cj = by_code[i], by_code[j]
        expected = 2.0 * ci.population**0.9 * cj.population**0.7 / distances[(i, j)] ** 1.1
        if ci.block == cj.block:
            expected *= 3.0
        assert f == pytest.approx(expected, rel=1e-12)


def test_block_boost_scales_intra_block_pairs_only():
    plain = expected_flows(small_world(n_blocks=2, block_boost=1.0))
    boosted = expected_flows(small_world(n_blocks=2, block_boost=5.0))
    world = small_world(n_blocks=2)
    blocks = {c.code: c.block for c in world.countries}
    for pair, f in plain.items():
        factor = 5.0 if blocks[pair[0]] == blocks[pair[1]] else 1.0
        assert boosted[pair] == pytest.approx(factor * f, rel=1e-12)


def test_coincident_capitals_rejected():
    world = SynthWorld(
        countries=[
            SynthCountry("AA", 1000, (10.0, 10.0), 0.01),
            SynthCountry("BB", 1000, (10.0, 10.0), 0.01),
        ]
    )
    with pytest.raises(ValueError, match="coincide"):
        expected_flows(world)


@pytest.mark.parametrize("gravity, pattern", [
    (dict(alpha=100.0), "flow AA->AB is not a finite number"),  # OverflowError from p**100
    (dict(gamma=-100.0), "flow AA->AB is not a finite number"),  # ZeroDivisionError: r**-100 rounds to 0
    (dict(A=1e308, alpha=1.0, beta=1.0, gamma=1.0), "flow AA->AB is not a finite number"),  # A * p is inf
    (dict(A=1e308, alpha=0.0, beta=0.0, gamma=0.0), "flows out of AA sum past the float range"),  # 3 * 1e308
    (dict(A=1e308, alpha=0.0, beta=0.0, gamma=0.0, n_blocks=1, block_boost=2.0), "flow AA->AB is not a finite"),
])
def test_planted_flows_past_the_float_range_are_rejected(gravity, pattern):
    with pytest.raises(ValueError, match=pattern):
        expected_flows(small_world(**gravity))
    with pytest.raises(ValueError, match=pattern):
        event_blocks(small_world(**gravity), users_per_country=2, events_per_user=5, trip_rate=0.5)


def test_planted_flows_summing_near_the_largest_float_are_kept():
    world = small_world(A=sys.float_info.max / 4, alpha=0.0, beta=0.0, gamma=0.0)
    flows = expected_flows(world)
    assert set(flows.values()) == {sys.float_info.max / 4}
    assert math.isfinite(math.fsum(flows[("AA", j)] for j in ("AB", "AC", "AD")))


def test_world_validation():
    c = SynthCountry("AA", 1000, (0.0, 0.0), 0.01)
    with pytest.raises(ValueError, match="duplicate"):
        SynthWorld(countries=[c, SynthCountry("AA", 5, (1.0, 1.0), 0.01)])
    with pytest.raises(ValueError, match="population"):
        SynthWorld(countries=[SynthCountry("AA", 0, (0.0, 0.0), 0.01)])
    with pytest.raises(ValueError, match="penetration"):
        SynthWorld(countries=[SynthCountry("AA", 10, (0.0, 0.0), 0.0)])
    with pytest.raises(ValueError, match="penetration"):
        SynthWorld(countries=[SynthCountry("AA", 10, (0.0, 0.0), 1.5)])
    with pytest.raises(ValueError, match="block_boost"):
        SynthWorld(countries=[c], block_boost=0.5)


def test_make_world_layout():
    world = make_world(20, n_blocks=4)
    codes = [c.code for c in world.countries]
    assert len(codes) == 20
    assert len(set(codes)) == 20
    assert codes[0] == "AA" and codes[1] == "AB"
    distances = capital_distances({c.code: c.capital for c in world.countries})
    closest = min(d for pair, d in distances.items() if pair[0] != pair[1])
    assert closest > 200.0
    # blocks are contiguous runs of five
    assert [c.block for c in world.countries] == [i // 5 for i in range(20)]


def test_make_world_overrides_and_validation():
    world = make_world(7)
    assert [c.population for c in world.countries] == [200_000 * k for k in (1, 2, 3, 4, 5, 6, 1)]
    assert [c.penetration for c in world.countries] == [0.002, 0.003, 0.004, 0.005, 0.006, 0.002, 0.003]
    with pytest.raises(ValueError):
        make_world(0)
    with pytest.raises(ValueError):
        make_world(677)
    with pytest.raises(ValueError):
        make_world(4, n_blocks=5)


# ---------------------------------------------------------------- power-law sampler


def test_sampler_is_deterministic_and_bounded():
    a = sample_power_law(42, 1.62, 1.0, 1e4, 500)
    b = sample_power_law(42, 1.62, 1.0, 1e4, 500)
    c = sample_power_law(43, 1.62, 1.0, 1e4, 500)
    assert a == b
    assert a != c
    assert all(1.0 <= x < 1e4 for x in a)


def test_sampler_matches_analytic_cdf():
    beta, xmin, xmax, n = 1.62, 1.0, 1e4, 20_000
    xs = np.sort(sample_power_law(7, beta, xmin, xmax, n))
    one_minus = 1.0 - beta
    lo, hi = xmin**one_minus, xmax**one_minus
    cdf = (xs**one_minus - lo) / (hi - lo)
    empirical = (np.arange(n) + 1.0) / n
    # DKW: sup gap above 0.02 at n = 20000 has probability ~2e-16
    assert float(np.max(np.abs(cdf - empirical))) < 0.02


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_power_law(0, 1.0, 1.0, 10.0, 5)
    with pytest.raises(ValueError):
        sample_power_law(0, 2.0, 5.0, 5.0, 5)
    with pytest.raises(ValueError):
        sample_power_law(0, 2.0, 1.0, 10.0, 0)


# ---------------------------------------------------------------- event generation


@pytest.fixture(scope="module")
def corpus():
    world = make_world(4, seed=11, n_blocks=2, block_boost=2.0)
    events, truth = generate_events(world, users_per_country=40, events_per_user=12, trip_rate=0.6)
    index = BoundaryIndex(world_boundaries(world))
    located = {}
    for e in events:
        located.setdefault(e.user_id, []).append(index.locate(e.lon, e.lat))
    return world, events, truth, located


def test_generation_is_deterministic():
    world = make_world(3, seed=5)
    ev1, t1 = generate_events(world, 10, 8, 0.5)
    ev2, t2 = generate_events(world, 10, 8, 0.5)
    assert event_lines(ev1) == event_lines(ev2)
    assert t1.residences == t2.residences
    assert t1.realized_edges == t2.realized_edges


def test_every_event_lands_in_a_planted_country(corpus):
    _, _, _, located = corpus
    assert all(code is not None for codes in located.values() for code in codes)


def test_home_events_outnumber_foreign(corpus):
    _, _, truth, located = corpus
    for user, codes in located.items():
        home = truth.residences[user]
        n_home = sum(1 for c in codes if c == home)
        assert n_home > len(codes) / 2


def test_foreign_events_form_one_block_at_one_destination(corpus):
    _, _, truth, located = corpus
    for user, codes in located.items():
        home = truth.residences[user]
        away = [c for c in codes if c != home]
        assert len(set(away)) <= 1
        if away:
            first = codes.index(away[0])
            assert codes[first : first + len(away)] == away  # contiguous trip


def test_bots_are_last_users_immobile_with_unique_sources(corpus):
    world, events, truth, located = corpus
    n_bots_per_country = int(0.05 * 40)
    assert len(truth.bots) == n_bots_per_country * len(world.countries)
    sources = [truth.sources[u] for u in truth.bots]
    assert len(set(sources)) == len(sources)
    for user in truth.bots:
        code = truth.residences[user]
        assert truth.sources[user].startswith(f"bot_{code}_")
        assert set(located[user]) == {code}
    human_sources = {truth.sources[u] for u in truth.residences if u not in set(truth.bots)}
    assert human_sources == set(HUMAN_SOURCES)


def test_timestamps_increase_and_stay_in_year(corpus):
    _, events, _, _ = corpus
    last = {}
    for e in events:
        assert YEAR_START <= e.timestamp < YEAR_START + YEAR_SECONDS
        if e.user_id in last:
            assert e.timestamp > last[e.user_id]
        last[e.user_id] = e.timestamp


def test_implied_speeds_stay_under_cleaning_limit(corpus):
    _, events, _, _ = corpus
    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)
    for evs in by_user.values():
        for a, b in zip(evs, evs[1:]):
            hours = (b.timestamp - a.timestamp) / 3600.0
            assert haversine_km((a.lat, a.lon), (b.lat, b.lon)) / hours <= 1000.0


def test_truth_counts_match_observed_events(corpus):
    world, _, truth, located = corpus
    mobile = {c: 0 for c in sorted(truth.n_users)}
    edges = {}
    for user, codes in located.items():
        home = truth.residences[user]
        away = sorted(set(codes) - {home})
        if away:
            mobile[home] += 1
            edges[(home, away[0])] = edges.get((home, away[0]), 0) + 1
    assert mobile == truth.realized_mobile
    assert dict(sorted(edges.items())) == truth.realized_edges
    assert truth.n_users == {c.code: 40 for c in world.countries}
    assert truth.n_humans == {c.code: 38 for c in world.countries}


def test_planted_mobility_scales_with_outflow_mass():
    world = make_world(4, seed=2)
    _, truth = generate_events(world, 5, 9, trip_rate=0.4)
    flows = expected_flows(world)
    codes = sorted(c.code for c in world.countries)
    mass = {c: math.fsum(flows[(c, d)] for d in codes if d != c) for c in codes}
    top = max(mass.values())
    for c in codes:
        assert truth.planted_mobility[c] == pytest.approx(0.4 * mass[c] / top, rel=1e-12)
    assert max(truth.planted_mobility.values()) == pytest.approx(0.4, rel=1e-12)


def test_zero_trip_rate_keeps_everyone_home():
    world = make_world(3, seed=9)
    events, truth = generate_events(world, 8, 6, trip_rate=0.0)
    assert truth.realized_edges == {}
    assert all(v == 0 for v in truth.realized_mobile.values())
    index = BoundaryIndex(world_boundaries(world))
    for e in events:
        assert index.locate(e.lon, e.lat) == truth.residences[e.user_id]


def test_single_event_users_are_immobile():
    world = make_world(3, seed=1)
    _, truth = generate_events(world, 6, 1, trip_rate=1.0)
    assert truth.realized_edges == {}
    assert all(p == 0.0 for p in truth.planted_mobility.values())


def test_realized_mobility_tracks_planted_probability():
    # each country's mobile count is a binomial draw over its human users
    world = make_world(4, seed=0, n_blocks=2, block_boost=4.0)
    _, truth = generate_events(world, users_per_country=2000, events_per_user=5, trip_rate=0.5)
    for code, p in truth.planted_mobility.items():
        n = truth.n_humans[code]
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(truth.realized_mobile[code] - n * p) <= 3.0 * sigma


def test_realized_destinations_track_flow_split():
    world = make_world(4, seed=0, n_blocks=2, block_boost=4.0)
    _, truth = generate_events(world, users_per_country=2000, events_per_user=5, trip_rate=0.5)
    flows = expected_flows(world)
    codes = sorted(c.code for c in world.countries)
    for origin in codes:
        mobile = truth.realized_mobile[origin]
        if mobile < 50:
            continue
        mass = math.fsum(flows[(origin, d)] for d in codes if d != origin)
        for dest in codes:
            if dest == origin:
                continue
            p = flows[(origin, dest)] / mass
            observed = truth.realized_edges.get((origin, dest), 0)
            sigma = math.sqrt(mobile * p * (1.0 - p))
            assert abs(observed - mobile * p) <= 3.0 * sigma + 1.0


def test_generation_validation():
    world = make_world(2)
    with pytest.raises(ValueError):
        generate_events(world, 5, 5, trip_rate=1.5)
    with pytest.raises(ValueError):
        generate_events(world, 5, 5, 0.5, bot_fraction=1.0)
    with pytest.raises(ValueError):
        generate_events(world, 0, 5, 0.5)
    with pytest.raises(ValueError):
        generate_events(world, 5, 0, 0.5)


def test_year_capacity_is_enforced():
    world = make_world(1)
    with pytest.raises(ValueError, match="fit inside the year"):
        generate_events(world, 1, 9000, trip_rate=0.0)


def test_leap_year_bounds_apply():
    world = make_world(2, seed=3)
    events, _ = generate_events(world, 30, 4, 0.3, year=2013)
    start = int(datetime(2013, 1, 1, tzinfo=timezone.utc).timestamp())
    assert not calendar.isleap(2013)
    for e in events:
        assert start <= e.timestamp < start + 365 * 86400


@st.composite
def synth_settings(draw):
    n_countries = draw(st.integers(1, 8))
    world = make_world(
        n_countries,
        seed=draw(st.integers(0, 10_000)),
        n_blocks=draw(st.integers(1, n_countries)),
        block_boost=draw(st.sampled_from([1.0, 4.0])),
    )
    return dict(
        world=world,
        users_per_country=draw(st.integers(1, 9)),
        events_per_user=draw(st.sampled_from([1, 2, 3, 4, 7, 12]) | st.integers(1, 60)),
        trip_rate=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        bot_fraction=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.9)),
        year=draw(st.sampled_from([1999, 2000, 2012, 2013])),
    )


@settings(max_examples=40)
@given(synth_settings(), st.integers(1, 7))
def test_block_generator_draws_what_the_scalar_one_does(kwargs, block_users):
    # Blocks of a few users split each country's users over several blocks.
    expected_events, expected_truth = helpers.generate_events(**kwargs)
    expected = event_lines(expected_events)
    with mock.patch.object(synth, "_BLOCK_USERS", block_users):
        events, truth = generate_events(**kwargs)
        written_truth, blocks = event_blocks(**kwargs)
        with tempfile.TemporaryDirectory() as tmp:  # written as cmd_synth writes events.csv
            path = os.path.join(tmp, "events.csv")
            tables.write_blocks(path, tables.EVENT_HEADER[:5], event_csv(blocks))
            with open(path, encoding="utf-8") as fh:
                written = fh.read()
    assert event_lines(events) == expected
    assert truth == expected_truth == written_truth
    assert written == "\n".join(expected) + "\n"


def test_default_block_size_matches_scalar_generator_on_several_blocks():
    kwargs = dict(world=make_world(5, seed=7, n_blocks=2, block_boost=3.0), users_per_country=450,
                  events_per_user=6, trip_rate=0.8, bot_fraction=0.1, year=2013)
    assert 5 * 450 > 2 * synth._BLOCK_USERS
    events, truth = generate_events(**kwargs)
    assert (events, truth) == helpers.generate_events(**kwargs)


# ---------------------------------------------------------------- serialization


def test_boundaries_are_closed_squares_sorted_by_code():
    world = make_world(5, seed=4)
    boundaries = world_boundaries(world)
    assert [b.code for b in boundaries] == sorted(c.code for c in world.countries)
    by_code = world.by_code()
    for b in boundaries:
        (ring,) = b.polygons[0]
        assert len(ring) == 5
        assert ring[0] == ring[-1]
        lat, lon = by_code[b.code].capital
        lons = [x for x, _ in ring]
        lats = [y for _, y in ring]
        assert min(lons) == lon - 2.0 and max(lons) == lon + 2.0
        assert min(lats) == lat - 2.0 and max(lats) == lat + 2.0


def test_event_lines_round_trip_through_parser(corpus):
    _, events, _, _ = corpus
    report = parse_events(event_lines(events))
    assert report.n_malformed == 0
    assert report.header_skipped
    assert report.events == events
    table = ingest.parse_events(event_lines(events))
    assert (table.n_malformed, table.header_skipped, events_of(table.events)) == (0, True, events)
