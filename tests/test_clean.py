"""Speed filtering and source-popularity filtering."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoflow import clean, ingest
from geoflow.clean import haversine_km
from helpers import Trajectory, apply_source_filter, ev, rank_sources, source_popularity_filter, speed_filter, traj
from helpers import build_trajectories, event_lists, events_of, table_of

# ---------------------------------------------------------------- speed filter


def test_slow_pair_is_kept():
    # one degree in one hour: ~111 km/h
    t, removed = speed_filter(traj("u", (0, 0.0, 0.0), (3600, 0.0, 1.0)))
    assert removed == 0
    assert len(t.events) == 2


def test_fast_pair_drops_later_event():
    # ten degrees in one hour: ~1112 km/h
    t, removed = speed_filter(traj("u", (0, 0.0, 0.0), (3600, 0.0, 10.0)))
    assert removed == 1
    assert [e.timestamp for e in t.events] == [0]


def test_exact_speed_limit_is_kept():
    # place the second event exactly max_speed * gap away
    t, removed = speed_filter(traj("u", (0, 0.0, 0.0), (3600, 0.0, 1.0)), max_speed_kmh=haversine_km((0.0, 0.0), (0.0, 1.0)))
    assert removed == 0


def test_zero_gap_duplicate_kept_move_dropped():
    t, removed = speed_filter(traj("u", (0, 0.0, 0.0), (0, 0.0, 0.0), (0, 0.0, 0.1)))
    assert removed == 1
    assert len(t.events) == 2


def test_comparison_is_against_last_retained_event():
    # B is too fast from A and gets dropped; C is fine relative to A even
    # though it would also have been fine relative to B
    t, removed = speed_filter(
        traj("u", (0, 0.0, 0.0), (3600, 0.0, 9.5), (7200, 0.0, 9.6))
    )
    assert removed == 1
    assert [e.timestamp for e in t.events] == [0, 7200]


def test_first_event_is_always_kept():
    t, removed = speed_filter(traj("u", (0, 89.0, 0.0)))
    assert removed == 0 and len(t.events) == 1
    t, removed = speed_filter(Trajectory("u", []))
    assert removed == 0 and t.events == []


lon_lists = st.lists(st.floats(min_value=-179.0, max_value=179.0), min_size=0, max_size=12)
gap_lists = st.lists(st.integers(min_value=0, max_value=7200), min_size=0, max_size=12)


@given(lon_lists, gap_lists)
def test_filtered_output_never_exceeds_limit(lons, gaps):
    n = min(len(lons), len(gaps))
    ts = 0
    points = []
    for i in range(n):
        ts += gaps[i]
        points.append((ts, 0.0, lons[i]))
    before = traj("u", *points)
    after, removed = speed_filter(before)
    assert removed == len(before.events) - len(after.events)
    for a, b in zip(after.events, after.events[1:]):
        dist = haversine_km((a.lat, a.lon), (b.lat, b.lon))
        gap = b.timestamp - a.timestamp
        if gap == 0:
            assert dist == 0.0
        else:
            assert dist * 3600.0 <= 1000.0 * gap
    # idempotence: a second pass removes nothing
    again, removed_again = speed_filter(after)
    assert removed_again == 0
    assert again.events == after.events


# ---------------------------------------------------------------- source ranking


def labeled_corpus(layout):
    """layout: {country: {source: [user, ...]}} -> events, one per entry."""
    events = []
    ts = 0
    for country, sources in layout.items():
        for source, users in sources.items():
            for user in users:
                ts += 1
                events.append(ev(user, ts, source=source, country=country))
    return events


def test_rank_sources_orders_by_mass_then_name():
    events = labeled_corpus({"AA": {"y": ["u1", "u2"], "x": ["u3", "u4"], "z": ["u5"]}})
    ranking = rank_sources(events)
    assert ranking["AA"] == [("x", 2), ("y", 2), ("z", 1)]


def test_rank_sources_user_mode_counts_distinct_users():
    events = labeled_corpus({"AA": {"x": ["u1", "u1", "u1"], "y": ["u2", "u3"]}})
    assert rank_sources(events, "users")["AA"] == [("y", 2), ("x", 1)]
    assert rank_sources(events, "events")["AA"] == [("x", 3), ("y", 2)]


def test_rank_sources_requires_labels():
    with pytest.raises(ValueError):
        rank_sources([ev("u", 1)])


def test_rank_sources_rejects_unknown_mode():
    with pytest.raises(ValueError):
        rank_sources([ev("u", 1, country="AA")], "likes")


# ---------------------------------------------------------------- source filter


def test_dominant_sources_cover_the_threshold():
    layout = {"AA": {"x": [f"x{i}" for i in range(90)],
                   "y": [f"y{i}" for i in range(9)],
                   "z": ["z0"]}}
    retained, filtered, stats = source_popularity_filter(labeled_corpus(layout), coverage=0.95)
    assert retained["AA"] == {"x", "y"}
    assert stats.users_before == 100 and stats.users_after == 99
    assert {e.source for e in filtered} == {"x", "y"}


def test_single_source_country_keeps_it():
    retained, _, _ = source_popularity_filter(labeled_corpus({"AA": {"only": ["u1"]}}))
    assert retained["AA"] == {"only"}


def test_even_split_keeps_both():
    layout = {"AA": {"x": ["u1"], "y": ["u2"]}}
    retained, _, _ = source_popularity_filter(labeled_corpus(layout), coverage=0.95)
    assert retained["AA"] == {"x", "y"}


def test_threshold_crossing_source_is_retained():
    # cumulative walk: 60 < 95, 60+30=90 < 95, 90+8=98 >= 95 -> keep all three
    layout = {"AA": {"a": [f"a{i}" for i in range(60)],
                   "b": [f"b{i}" for i in range(30)],
                   "c": [f"c{i}" for i in range(8)],
                   "d": ["d0", "d1"]}}
    retained, _, _ = source_popularity_filter(labeled_corpus(layout), coverage=0.95)
    assert retained["AA"] == {"a", "b", "c"}


def test_coverage_is_exact_decimal_not_float():
    # 95 users of 100: float 0.95*100 rounds below 95; the filter must stop
    # exactly at the planted boundary
    layout = {"AA": {"a": [f"a{i}" for i in range(50)],
                   "b": [f"b{i}" for i in range(45)],
                   "bot1": ["m1"], "bot2": ["m2"], "bot3": ["m3"],
                   "bot4": ["m4"], "bot5": ["m5"]}}
    retained, filtered, stats = source_popularity_filter(labeled_corpus(layout), coverage=0.95)
    assert retained["AA"] == {"a", "b"}
    assert stats.users_after == 95
    assert Fraction(str(0.95)) * 100 == 95  # the boundary the filter must hit


def test_planted_user_and_event_survival_fractions():
    """98%% of users on two big sources post 95%% of events; bots post the rest."""
    layout = {"AA": {"a": [f"a{i}" for i in range(50)] * 2,          # 50 users, 100 events
                   "b": [f"b{i}" for i in range(42)] * 2 + [f"c{i}" for i in range(6)],  # 48 users, 90 events
                   "bot1": ["m1"] * 5, "bot2": ["m2"] * 5}}        # 2 users, 10 events
    events = labeled_corpus(layout)
    assert len(events) == 200
    retained, filtered, stats = source_popularity_filter(events, coverage=0.95)
    assert retained["AA"] == {"a", "b"}
    assert stats.user_fraction == 0.98
    assert stats.event_fraction == 0.95
    table = table_of(events)
    table = table.take(ingest.build_trajectories(table))  # the order the filter takes its rows in
    table_retained, _, table_stats = clean.source_popularity_filter(table, coverage=0.95)
    assert (table_retained, table_stats) == (retained, stats)


def test_countries_filter_independently():
    layout = {
        "AA": {"x": [f"x{i}" for i in range(99)], "z": ["z0"]},
        "BB": {"z": [f"w{i}" for i in range(10)]},
    }
    retained, _, _ = source_popularity_filter(labeled_corpus(layout), coverage=0.95)
    assert retained["AA"] == {"x"}
    assert retained["BB"] == {"z"}  # z dominates BB even though AA drops it


def test_filter_keeps_events_only_for_retained_pairs():
    layout = {"AA": {"x": [f"x{i}" for i in range(99)], "z": ["z0"]},
            "BB": {"z": ["w0"]}}
    _, filtered, _ = source_popularity_filter(labeled_corpus(layout), coverage=0.95)
    assert all((e.country, e.source) != ("AA", "z") for e in filtered)
    assert any((e.country, e.source) == ("BB", "z") for e in filtered)


def test_coverage_one_keeps_everything():
    layout = {"AA": {"x": ["u1"], "y": ["u2"], "z": ["u3"]}}
    events = labeled_corpus(layout)
    retained, filtered, _ = source_popularity_filter(events, coverage=1.0)
    assert retained["AA"] == {"x", "y", "z"}
    assert filtered == events


def test_apply_source_filter_is_frozen_set_semantics():
    layout = {"AA": {"x": ["u1", "u2"], "y": ["u3"]}}
    events = labeled_corpus(layout)
    kept = apply_source_filter(events, {"AA": {"y"}})
    assert [e.user_id for e in kept] == ["u3"]
    # unlisted country -> nothing retained there
    assert apply_source_filter(events, {}) == []


corpus_strategy = st.lists(
    st.tuples(
        st.sampled_from(["AA", "BB"]),
        st.sampled_from(["s1", "s2", "s3", "s4"]),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=40,
)


@given(corpus_strategy)
def test_source_filter_idempotent(rows):
    events = [ev(f"u{uid}", i, source=s, country=c) for i, (c, s, uid) in enumerate(rows)]
    retained, filtered, _ = source_popularity_filter(events, coverage=0.95)
    retained2, filtered2, _ = source_popularity_filter(filtered, coverage=0.95)
    assert filtered2 == filtered
    assert retained2 == retained
    assert apply_source_filter(filtered, retained2) == filtered


@given(corpus_strategy, st.sampled_from([(0.5, 0.8), (0.8, 0.95), (0.5, 1.0)]))
def test_retained_sets_grow_with_coverage(rows, coverages):
    events = [ev(f"u{uid}", i, source=s, country=c) for i, (c, s, uid) in enumerate(rows)]
    low, high = coverages
    retained_low, _, _ = source_popularity_filter(events, coverage=low)
    retained_high, _, _ = source_popularity_filter(events, coverage=high)
    for country, sources in retained_low.items():
        assert sources <= retained_high[country]


@given(corpus_strategy)
def test_retained_sources_cover_requested_mass(rows):
    events = [ev(f"u{uid}", i, source=s, country=c) for i, (c, s, uid) in enumerate(rows)]
    retained, _, _ = source_popularity_filter(events, coverage=0.9)
    ranking = rank_sources(events)
    for country, ranked in ranking.items():
        total = sum(mass for _, mass in ranked)
        kept = sum(mass for source, mass in ranked if source in retained[country])
        assert Fraction(kept) >= Fraction("0.9") * total


# ---------------------------------------------------------------- columnar filters


@given(event_lists(), st.sampled_from([1000.0, 50.0]))
def test_table_speed_filter_matches_the_scan(events, cap):
    table = table_of(events)
    trajectories = table.take(ingest.build_trajectories(table))
    keep, removed = clean.speed_filter(trajectories, cap)
    want, want_removed = [], 0
    oracle = build_trajectories(events_of(table))
    for user in sorted(oracle):
        kept, n = speed_filter(oracle[user], cap)
        want += kept.events
        want_removed += n
    assert events_of(trajectories) == [e for user in sorted(oracle) for e in oracle[user].events]
    assert (events_of(trajectories.take(keep)), removed) == (want, want_removed)


@given(event_lists(), st.sampled_from(["users", "events"]), st.sampled_from([0.5, 0.95, 1.0]))
def test_table_source_filter_matches_the_object_filter(events, mode, coverage):
    table = table_of(events)
    table = table.take(ingest.build_trajectories(table))  # the order the filter takes its rows in
    retained, keep, stats = clean.source_popularity_filter(table, coverage, mode)
    want_retained, want_kept, want_stats = source_popularity_filter(events_of(table), coverage, mode)
    assert (retained, events_of(table.take(keep)), stats) == (want_retained, want_kept, want_stats)
    assert list(stats.rankings) == list(want_stats.rankings)


@pytest.mark.parametrize("mode", ["users", "events"])
def test_table_source_filter_keys_do_not_overflow_narrow_codes(mode):
    # 20,040 sources still take int16 codes, and country CC's key 2 * 20,040 + source passes 2**15.
    countries = ["AA", "BB", "CC"]
    rare = [ev(f"u{i % 700}", i, source=f"r{i:05d}", country=countries[i % 3]) for i in range(20_000)]
    popular = [ev(f"u{i % 700}", i, source=f"p{i % 40:02d}", country=countries[i % 3]) for i in range(20_000)]
    table = table_of(rare + popular)
    table = table.take(ingest.build_trajectories(table))
    assert table.source.dtype == np.int16 and table.country.dtype == np.int16
    retained, keep, stats = clean.source_popularity_filter(table, 0.5, mode)
    want_retained, want_kept, want_stats = source_popularity_filter(events_of(table), 0.5, mode)
    assert (retained, events_of(table.take(keep)), stats) == (want_retained, want_kept, want_stats)
    assert 0 < stats.events_after < stats.events_before


def test_table_filters_reject_unlabeled_events():
    with pytest.raises(ValueError, match="country label"):
        clean.source_popularity_filter(table_of([ev("u", 1)]))
