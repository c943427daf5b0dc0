"""Mobility measures: gyration radii, displacements, daily abroad series."""

import calendar
import dataclasses
import math
import os
import random
import string
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from geoflow import cli, ingest, metrics, network, residence
from geoflow.metrics import build_mobility_profiles
from geoflow.sphere import EARTH_RADIUS_KM, haversine_km, normalize_lon
from helpers import (
    Y2012,
    build_profiles,
    daily_abroad_series,
    destination_diversity,
    displacements,
    ev,
    is_mobile,
    mobility_by_code,
    mobility_rate,
    network_objects,
    radius_of_gyration,
    rotate_points,
    stats_by_code,
    traj,
    user_gyration_radii,
)
from helpers import build_trajectories, event_lists, events_of, table_of, trajectories_of

HALF_TURN_KM = math.pi * EARTH_RADIUS_KM


# ---------------------------------------------------------------- gyration


def test_single_point_has_zero_radius():
    assert radius_of_gyration([(40.0, -3.0)]) == 0.0


def test_identical_points_have_zero_radius():
    assert radius_of_gyration([(40.0, -3.0)] * 5) == pytest.approx(0.0, abs=1e-9)


def test_equatorial_pair_radius_is_quarter_arc():
    # center sits midway; each point is half a degree away
    want = HALF_TURN_KM / 360.0  # 55.59754011676645
    assert radius_of_gyration([(0.0, 0.0), (0.0, 1.0)]) == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(55.59754011676645, abs=1e-12)


def test_radius_matches_direct_formula():
    pts = [(48.8566, 2.3522), (52.52, 13.405), (40.4168, -3.7038)]
    from helpers import center_of_mass

    center = center_of_mass(pts)
    want = math.sqrt(sum(haversine_km(center, p) ** 2 for p in pts) / len(pts))
    assert radius_of_gyration(pts) == pytest.approx(want, abs=1e-9)


def test_radius_invariant_under_duplication():
    pts = [(10.0, 20.0), (30.0, -40.0), (-5.0, 5.0)]
    assert radius_of_gyration(pts * 4) == pytest.approx(radius_of_gyration(pts), abs=1e-9)


@given(
    st.lists(
        st.tuples(st.floats(-60, 60), st.floats(-170, 170)), min_size=2, max_size=8
    ),
    st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
    st.floats(0.1, 3.0),
)
def test_radius_invariant_under_rigid_rotation(pts, axis, angle):
    base = radius_of_gyration(pts)
    rotated = radius_of_gyration(rotate_points(pts, axis, angle))
    assert rotated == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_degenerate_center_falls_back_to_first_point():
    # antipodal pair: the vector mean vanishes, so measure from the first point
    pts = [(0.0, 0.0), (0.0, 180.0)]
    want = math.sqrt((0.0**2 + HALF_TURN_KM**2) / 2)
    assert radius_of_gyration(pts) == pytest.approx(want, abs=1e-6)


def test_user_gyration_radii_groups_by_user():
    events = [
        ev("a", 1, 0.0, 0.0, country="AA"),
        ev("a", 2, 0.0, 1.0, country="AA"),
        ev("b", 1, 10.0, 10.0, country="BB"),
    ]
    radii = user_gyration_radii(events)
    assert set(radii) == {"a", "b"}
    assert radii["a"] == pytest.approx(HALF_TURN_KM / 360.0, abs=1e-9)
    assert radii["b"] == 0.0


# ---------------------------------------------------------------- displacements


def test_displacements_are_consecutive_distances():
    t = traj("u", (0, 0.0, 0.0), (10, 0.0, 1.0), (20, 0.0, 3.0))
    d = displacements(t)
    assert len(d) == 2
    assert d[0] == pytest.approx(haversine_km((0, 0), (0, 1)), abs=1e-12)
    assert d[1] == pytest.approx(haversine_km((0, 1), (0, 3)), abs=1e-12)


def test_displacements_of_short_trajectories():
    assert displacements(traj("u", (0, 0.0, 0.0))) == []
    assert displacements(traj("u")) == []


# ---------------------------------------------------------------- mobility


def make_profiles(user_events):
    return build_profiles(user_events)


def user_table(events):
    """The UserTable of some events, and their gyration radii by user code."""
    table = trajectories_of(events)
    return residence.build_profiles(table), metrics.user_gyration_radii(table)


def test_is_mobile_needs_two_countries():
    profiles = make_profiles(
        [ev("home", 1, country="AA"), ev("roam", 1, country="AA"), ev("roam", 2, country="BB")]
    )
    assert not is_mobile(profiles["home"])
    assert is_mobile(profiles["roam"])


def test_mobility_rate_counts_mobile_residents():
    events = []
    for i in range(4):
        events.append(ev(f"u{i}", 1, country="AA"))
    events.append(ev("u0", 2, country="BB"))  # one of four residents goes abroad
    profiles = make_profiles(events)
    assert mobility_rate("AA", profiles) == 0.25
    with pytest.raises(ValueError):
        mobility_rate("BB", profiles)  # nobody resides in BB


def test_destination_diversity_counts_distinct_foreign_countries():
    events = [
        ev("u1", 1, country="AA"),
        ev("u1", 2, country="BB"),
        ev("u1", 3, country="CC"),
        ev("u2", 1, country="AA"),
        ev("u2", 2, country="BB"),
    ]
    profiles = make_profiles(events)
    assert destination_diversity("AA", profiles) == 2  # BB and CC
    assert mobility_by_code(build_mobility_profiles(*user_table(events)))["AA"].countries_visited == 2


def test_build_mobility_profiles_rates_and_means():
    events = [
        ev("u1", 1, 0.0, 0.0, country="AA"),
        ev("u1", 2, 0.0, 1.0, country="AA"),
        ev("u2", 1, 0.0, 0.0, country="AA"),
        ev("u2", 2, 0.0, 0.0, country="BB"),
    ]
    out = mobility_by_code(build_mobility_profiles(*user_table(events)))
    aa = out["AA"]
    assert aa.n_residents == 2
    assert aa.mobility_rate == 0.5
    r1 = radius_of_gyration([(0.0, 0.0), (0.0, 1.0)])
    r2 = radius_of_gyration([(0.0, 0.0), (0.0, 0.0)])
    assert aa.mean_radius_km == pytest.approx((r1 + r2) / 2, abs=1e-9)
    assert aa.countries_visited == 1


def test_build_mobility_profiles_mobile_only_mean():
    events = [
        ev("u1", 1, 0.0, 0.0, country="AA"),
        ev("u1", 2, 0.0, 1.0, country="AA"),
        ev("u2", 1, 0.0, 0.0, country="AA"),
        ev("u2", 2, 0.0, 0.0, country="BB"),
    ]
    out = mobility_by_code(build_mobility_profiles(*user_table(events), gyration_over="mobile"))
    assert out["AA"].mean_radius_km == pytest.approx(0.0, abs=1e-9)  # only u2 is mobile


def test_build_mobility_profiles_rejects_unknown_mode():
    with pytest.raises(ValueError):
        build_mobility_profiles(*user_table([]), gyration_over="everyone")


# ---------------------------------------------------------------- daily series


def day_ts(day, offset=0):
    return Y2012 + day * 86400 + offset


def resident_events(user, country, n=3):
    """Enough home events to pin residence regardless of extras."""
    return [ev(user, day_ts(300 + i), country=country) for i in range(n)]


def test_outbound_counts_distinct_users_per_day():
    events = resident_events("u1", "AA") + [
        ev("u1", day_ts(5, 100), country="BB"),
        ev("u1", day_ts(5, 200), country="CC"),  # same user, same day, twice abroad
        ev("u1", day_ts(6), country="BB"),
    ]
    profiles = build_profiles(events)
    series = daily_abroad_series(profiles, events, "outbound")
    assert series["AA"].values[5] == 1
    assert series["AA"].values[6] == 1
    assert sum(series["AA"].values) == 2


def test_inbound_keys_by_event_country():
    events = resident_events("u1", "AA") + [ev("u1", day_ts(5), country="BB")]
    profiles = build_profiles(events)
    series = daily_abroad_series(profiles, events, "inbound")
    assert series["BB"].values[5] == 1
    assert sum(series["AA"].values) == 0


def test_home_events_do_not_count():
    events = resident_events("u1", "AA")
    profiles = build_profiles(events)
    series = daily_abroad_series(profiles, events, "outbound")
    assert sum(series["AA"].values) == 0
    assert series["AA"].normalized == [0.0] * 366


def test_events_outside_year_are_ignored():
    events = resident_events("u1", "AA") + [
        ev("u1", Y2012 - 50, country="BB"),
        ev("u1", Y2012 + 366 * 86400 + 50, country="BB"),
    ]
    profiles = build_profiles(events)
    series = daily_abroad_series(profiles, events, "outbound")
    assert sum(series["AA"].values) == 0


def test_leap_year_has_366_days_other_years_365():
    events = resident_events("u1", "AA")
    profiles = build_profiles(events)
    assert len(daily_abroad_series(profiles, events, "outbound", year=2012)["AA"].values) == 366
    assert len(daily_abroad_series(profiles, events, "outbound", year=2013)["AA"].values) == 365


def test_normalization_peaks_at_100():
    events = resident_events("u1", "AA") + resident_events("u2", "AA") + [
        ev("u1", day_ts(3), country="BB"),
        ev("u2", day_ts(3), country="BB"),
        ev("u1", day_ts(9), country="BB"),
    ]
    profiles = build_profiles(events)
    series = daily_abroad_series(profiles, events, "outbound")
    s = series["AA"]
    assert s.values[3] == 2 and s.values[9] == 1
    assert max(s.normalized) == 100.0
    assert s.normalized[9] == 50.0


def test_series_cover_every_observed_country():
    events = resident_events("u1", "AA") + [ev("u1", day_ts(1), country="BB")]
    profiles = build_profiles(events)
    series = daily_abroad_series(profiles, events, "outbound")
    assert set(series) == {"AA", "BB"}


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        daily_abroad_series({}, [], "sideways")


# ---------------------------------------------------------------- columnar metrics


CENSUS = {"AA": 4, "BB": 0}  # CC has no census row


def plain(records):
    """True if no field of the records is a numpy scalar, whose repr reads np.float64(...) under NumPy 2."""
    return all(type(value).__module__ == "builtins" for record in records for value in dataclasses.astuple(record))


@given(event_lists(), st.integers(-90_000, 200_000))
def test_table_metrics_match_the_object_metrics(events, cutoff):
    """The user chain over columns, from the profiles to the flow network, against the object oracles.

    Events after the cutoff leave the table but not its vocabularies, so some users have no event."""
    table = table_of(events)
    table = table.take(table.timestamp <= Y2012 + cutoff)
    trajectories = table.take(ingest.build_trajectories(table))
    objects = events_of(trajectories)
    profiles, want = residence.build_profiles(trajectories), build_profiles(objects)
    has = np.flatnonzero(profiles.residence >= 0)
    assert [profiles.users[u] for u in has.tolist()] == list(want)
    assert [profiles.countries[c] for c in profiles.residence[has].tolist()] == [p.residence for p in want.values()]
    assert profiles.total_events[has].tolist() == [p.total_events for p in want.values()]
    assert profiles.distinct_countries[has].tolist() == [p.distinct_countries for p in want.values()]
    assert profiles.total_events.sum() == len(table)
    pairs = [(profiles.users[u], profiles.countries[c]) for u, c in zip(profiles.user.tolist(), profiles.country.tolist())]
    assert pairs == [(u, c) for u, p in want.items() for c in sorted(p.counts)]
    stats = stats_by_code(residence.compute_country_stats(profiles, CENSUS, {"AA": 1.5}, 0.5, 2))
    assert stats == helpers.compute_country_stats(want, CENSUS, {"AA": 1.5}, 0.5, 2) and list(stats) == sorted(stats)
    assert plain(stats.values())

    radii, want_radii = metrics.user_gyration_radii(trajectories), user_gyration_radii(objects)
    assert radii[has].tolist() == list(want_radii.values())  # bit for bit, in user id order
    assert np.isnan(np.delete(radii, has)).all()
    for gyration_over in ("all", "mobile"):
        mobility = mobility_by_code(metrics.build_mobility_profiles(profiles, radii, gyration_over))
        assert mobility == helpers.build_mobility_profiles(want, want_radii, gyration_over)
        assert list(mobility) == sorted(mobility) and plain(mobility.values())
    flows = network_objects(network.build_flow_network(profiles))
    assert flows == helpers.build_flow_network(want) and list(flows.edges) == sorted(flows.edges)
    assert plain(flows.edges.values()) and all(type(m) is int for m in flows.mobile_residents.values())
    series = table_daily_series(profiles, trajectories)
    assert series == oracle_daily_series(want, objects) and series[0] == sorted(series[0])

    users, km = metrics.displacements(trajectories)
    oracle = build_trajectories(objects)
    want_km = [(user, d) for user in sorted(oracle) for d in displacements(oracle[user])]
    assert list(zip([trajectories.users[u] for u in users.tolist()], km.tolist())) == want_km


@given(
    event_lists(),
    st.dictionaries(st.sampled_from(["AA", "BB", "CC"]), st.integers(-5, 10) | st.just(10**20)),
    st.dictionaries(st.sampled_from(["AA", "BB", "CC"]), st.floats(-1e300, 1e300)),
    st.sampled_from(["all", "mobile"]),
)
def test_country_tables_read_back_as_their_producers_columns(events, census, gdp, gyration_over):
    """country_stats.csv and mobility_profiles.csv, written by Workspace.write_table, read back (read_rows) as
    the columns their producers returned: census gaps, nonpositive and huge populations, GDP or none."""
    profiles, radii = user_table(events)
    produced = {
        "country_stats.csv": residence.compute_country_stats(profiles, census, gdp, 0.1, min_residents=2),
        "mobility_profiles.csv": metrics.build_mobility_profiles(profiles, radii, gyration_over),
    }
    with tempfile.TemporaryDirectory() as workdir:
        ws = cli.Workspace({"paths": {"workdir": workdir}})
        for name, columns in produced.items():
            ws.write_table(name, columns)
            assert ws.read_rows(name) == columns


def table_daily_series(profiles, events, year=2012):
    """metrics.daily_abroad_series as lists, once its arrays' types and shapes are checked."""
    countries, outbound, inbound = metrics.daily_abroad_series(profiles, events, year)
    shape = (len(countries), 366 if calendar.isleap(year) else 365)
    assert outbound.dtype == inbound.dtype == np.int64 and outbound.shape == inbound.shape == shape
    return countries, outbound.tolist(), inbound.tolist()


def oracle_daily_series(profiles, events, year=2012):
    """The oracle's series in the form of table_daily_series: the countries, then each direction's counts."""
    outbound, inbound = (daily_abroad_series(profiles, events, d, year) for d in ("outbound", "inbound"))
    return list(outbound), [s.values for s in outbound.values()], [s.values for s in inbound.values()]


def test_daily_series_reject_profiles_over_other_vocabularies():
    events = resident_events("u1", "AA") + resident_events("u2", "BB") + [ev("u2", day_ts(1), country="AA")]
    table = table_of(events)
    for other in (trajectories_of(events[3:]), trajectories_of(events[:3])):  # by code, u2 would read u1's row or none
        with pytest.raises(ValueError, match="vocabularies"):
            metrics.daily_abroad_series(residence.build_profiles(other), table)


def test_daily_series_of_a_user_without_events_and_no_country():
    table = table_of([ev("u", 1)])
    table = table.take(np.zeros(1, dtype=bool))  # the names stay: one user, no country
    assert table_daily_series(residence.build_profiles(table), table) == ([], [], [])


def test_inbound_series_skip_a_country_no_profile_covers():
    table = table_of(resident_events("u1", "AA", n=2) + [ev("u1", day_ts(5), country="BB")])
    profiles = residence.build_profiles(table.take(table.country == table.countries.index("AA")))
    countries, (outbound,), (inbound,) = table_daily_series(profiles, table)
    assert countries == ["AA"] and sum(inbound) == 0  # BB has no series row to count in
    assert outbound[5] == 1 and sum(outbound) == 1  # the trip still counts for AA


@pytest.mark.parametrize("direction", ["outbound", "inbound"])
def test_table_daily_series_keys_do_not_overflow_narrow_codes(direction):
    # 676 countries x 366 days x 10,000 users passes 2**31, and the user codes are int16.
    codes = [a + b for a in string.ascii_uppercase for b in string.ascii_uppercase]
    events = []
    for u in range(10_000):
        home, away = codes[u % 676], codes[(7 * u + 1) % 676]
        day = Y2012 + u % 366 * 86400
        events += [ev(f"u{u:05d}", day, country=home), ev(f"u{u:05d}", day + 1, country=home)]
        events.append(ev(f"u{u:05d}", day + 2, country=away))
    table = table_of(events)
    assert table.user.dtype == np.int16 and len(table.countries) == 676
    side = {"outbound": 1, "inbound": 2}[direction]
    series = table_daily_series(residence.build_profiles(table), table)
    want = oracle_daily_series(build_profiles(events), events)
    assert series[0] == want[0] and series[side] == want[side]
    assert sum(map(sum, series[side])) == 10_000


@st.composite
def daily_counts(draw):
    """Outbound and inbound counts of the same few countries: each row all zero, or a few days of up to 2**53."""
    n = draw(st.integers(0, 3))
    pair = np.zeros((2, n, 366), dtype=np.int64)
    for row in pair.reshape(-1, 366):
        days = draw(st.lists(st.integers(0, 365), max_size=4))
        row[days] = draw(st.lists(st.sampled_from([1, 2**53]) | st.integers(0, 2**53), min_size=len(days),
                                  max_size=len(days)))
    return pair


@example(np.array([[[1, 2**53, 3] + [0] * 363], [[0] * 366]]))  # 100 / 2**53 < 1e-4, and an all-zero row
@given(daily_counts())
def test_daily_files_normalize_as_python_does(pair):
    """The metrics stage writes each count and 100.0 * count / peak of its row bit for bit, an all-zero row as 0.0."""
    table = table_of([ev("u", Y2012, country="AA")])
    countries = [f"C{i}" for i in range(pair.shape[1])]
    with tempfile.TemporaryDirectory() as workdir, \
            mock.patch.object(metrics, "daily_abroad_series", lambda *args, **kwargs: (countries, *pair)):
        ws = cli.Workspace({"paths": {"workdir": workdir}, "metrics": {"gyration_over": "all"}, "year": 2012})
        ws.held.update({"profiles": residence.build_profiles(table), "events_clean.csv": table})
        cli.stage_metrics(ws)
        for name, counts in zip(("daily_outbound.csv", "daily_inbound.csv"), pair.tolist()):
            want = ["code,day,count,normalized"]
            for code, row in zip(countries, counts):
                peak = max(row)
                want += [f"{code},{day},{v},{(100.0 * v / peak if peak else 0.0)!r}" for day, v in enumerate(row)]
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                assert fh.read() == "\n".join(want) + "\n"


def test_gyration_of_an_antipodal_pair_anchors_at_the_first_event():
    trajectories = table_of([ev("u", 1, 0.0, 0.0), ev("u", 2, 0.0, 180.0), ev("v", 1, 5.0, 5.0)])
    radii = metrics.user_gyration_radii(trajectories)
    assert radii.tolist() == [radius_of_gyration([(0.0, 0.0), (0.0, 180.0)]), 0.0]  # u, v
    assert radii[0] == pytest.approx(HALF_TURN_KM / math.sqrt(2.0))


def test_gyration_of_a_few_long_trajectories_among_short_ones():
    rng = random.Random(5)
    lengths = {"long1": 3000, "long2": 700, **{f"s{k:02d}": 1 + k % 5 for k in range(60)}}
    events = [
        ev(user, Y2012 + 60 * i, rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0), country="AA")
        for user, n in lengths.items()
        for i in range(n)
    ]
    rng.shuffle(events)
    table = table_of(events)
    radii = metrics.user_gyration_radii(table.take(ingest.build_trajectories(table)))
    want = user_gyration_radii(sorted(events, key=lambda e: (e.user_id, e.timestamp)))  # trajectory order
    assert radii.tolist() == list(want.values())


# Points at the center's edge cases: the poles, the +-180 meridian and one ulp inside it.
EDGE_POINTS = st.tuples(
    st.sampled_from([90.0, -90.0, 89.99999999999999, -89.99999999999999, 0.0]) | st.floats(-90.0, 90.0),
    st.sampled_from([180.0, -180.0, 179.99999999999997, -179.99999999999997, 0.0]) | st.floats(-180.0, 180.0),
)


def antipode(point, dlat=0.0):
    lat, lon = point
    return (min(90.0, max(-90.0, dlat - lat)), lon - 180.0 if lon > 0.0 else lon + 180.0)


GYRATION_USERS = st.one_of(
    st.lists(EDGE_POINTS, min_size=1, max_size=6),
    st.tuples(EDGE_POINTS, st.integers(2, 5)).map(lambda pk: [pk[0]] * pk[1]),  # one repeated point
    EDGE_POINTS.map(lambda p: [p, antipode(p)]),
    st.tuples(EDGE_POINTS, st.floats(-4e-10, 4e-10)).map(lambda pd: [pd[0], antipode(*pd)]),  # mean norm near 1e-12
)


@given(st.lists(GYRATION_USERS, min_size=1, max_size=12))
@example([[(0.0, 0.0), (1.14e-10, 180.0)], [(0.0, 0.0), (1.15e-10, 180.0)]])  # mean norm either side of 1e-12
@example([[(0.0, 180.0), (0.0, -179.99999999999997)]])  # the center's arctangent is -180 degrees
@example(
    [
        [(67.31220521966358, 27.291893268371126), (44.332207922602805, -151.55543019616147)],  # np.hypot differs
        [(84.21737253625886, -101.09073687969345), (7.786960270308057, -141.88432015081926)],  # np.sqrt differs
        [(-78.79342340317984, 50.75455052248208), (-67.08225367209832, -76.64819760171892)],  # np.arctan2 differs
    ]
)
def test_gyration_radii_are_the_scalar_oracles_bit_for_bit(users):
    """Each user's radius is helpers.radius_of_gyration of its points (longitudes as parsed), bit for bit.

    The examples put a center on each side of the 1e-12 norm and on the seam, and hold users whose radius
    changes if numpy's hypot, arctan2 or sqrt stand in for libm's."""
    events = [ev(f"u{k:03d}", Y2012 + i, lat, lon) for k, points in enumerate(users) for i, (lat, lon) in enumerate(points)]
    radii = metrics.user_gyration_radii(table_of(events))
    want = np.array([radius_of_gyration([(lat, normalize_lon(lon)) for lat, lon in points]) for points in users])
    assert radii.view(np.int64).tolist() == want.view(np.int64).tolist(), (radii.tolist(), want.tolist())
