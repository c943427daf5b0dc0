"""Residence assignment, user profiles, and country inclusion stats."""

from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoflow import residence
from geoflow.residence import compute_country_stats
from helpers import assign_residence, build_profiles, ev, event_lists, stats_by_code, table_of, trajectories_of


# ---------------------------------------------------------------- assignment


def test_plurality_wins():
    assert assign_residence({"AA": 10, "BB": 5}, {"AA": 50, "BB": 1}) == "AA"


def test_count_tie_breaks_on_earlier_first_seen():
    assert assign_residence({"AA": 5, "BB": 5}, {"AA": 100, "BB": 99}) == "BB"
    assert assign_residence({"AA": 5, "BB": 5}, {"AA": 99, "BB": 100}) == "AA"


def test_full_tie_breaks_on_code():
    assert assign_residence({"BB": 5, "AA": 5}, {"AA": 7, "BB": 7}) == "AA"


def test_single_country():
    assert assign_residence({"CC": 1}, {"CC": 9}) == "CC"


def test_two_country_exhaustive_enumeration():
    """Check every small (count, count, order) configuration against the rule."""
    for ca, cb in product(range(5), range(5)):
        if ca == 0 and cb == 0:
            continue
        counts = {}
        if ca:
            counts["AA"] = ca
        if cb:
            counts["BB"] = cb
        for fa, fb in ((1, 2), (2, 1), (3, 3)):
            first_seen = {c: {"AA": fa, "BB": fb}[c] for c in counts}
            got = assign_residence(counts, first_seen)
            # independent restatement of the rule
            best = max(counts.values())
            tied = [c for c, n in counts.items() if n == best]
            earliest = min(first_seen[c] for c in tied)
            tied = [c for c in tied if first_seen[c] == earliest]
            assert got == min(tied), (counts, first_seen)


def test_empty_counts_rejected():
    with pytest.raises(ValueError):
        assign_residence({}, {})


# ---------------------------------------------------------------- profiles


def events_fixture():
    return [
        ev("u1", 10, country="AA"),
        ev("u1", 20, country="AA"),
        ev("u1", 30, country="BB"),
        ev("u2", 5, country="BB"),
    ]


def test_build_profiles_counts_and_residence():
    profiles = build_profiles(events_fixture())
    assert list(profiles) == ["u1", "u2"]
    p = profiles["u1"]
    assert p.counts == {"AA": 2, "BB": 1}
    assert p.first_seen == {"AA": 10, "BB": 30}
    assert p.residence == "AA"
    assert p.distinct_countries == 2
    assert p.total_events == 3
    assert profiles["u2"].residence == "BB"


def test_build_profiles_requires_labels():
    with pytest.raises(ValueError):
        build_profiles([ev("u", 1)])


def test_profiles_partition_the_events():
    events = events_fixture()
    profiles = build_profiles(events)
    assert sum(p.total_events for p in profiles.values()) == len(events)


def test_profiles_invariant_under_event_order():
    events = events_fixture()
    base = build_profiles(events)
    for perm in permutations(events):
        assert build_profiles(list(perm)) == base


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3"]),
            st.integers(0, 100),
            st.sampled_from(["AA", "BB", "CC"]),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_profile_invariants(rows):
    events = [ev(u, ts, country=c) for u, ts, c in rows]
    profiles = build_profiles(events)
    assert set(profiles) == {e.user_id for e in events}
    for user, p in profiles.items():
        mine = [e for e in events if e.user_id == user]
        assert p.total_events == len(mine)
        assert p.distinct_countries == len({e.country for e in mine})
        assert p.residence in p.counts
        for country, n in p.counts.items():
            assert n == sum(1 for e in mine if e.country == country)
            assert p.first_seen[country] == min(
                e.timestamp for e in mine if e.country == country
            )


# ---------------------------------------------------------------- country stats


def profiles_for(counts_by_user):
    events = []
    ts = 0
    for user, countries in counts_by_user.items():
        for country in countries:
            ts += 1
            events.append(ev(user, ts, country=country))
    return residence.build_profiles(trajectories_of(events))


def test_included_country():
    profiles = profiles_for({f"u{i}": ["AA"] for i in range(100)})
    stats = stats_by_code(compute_country_stats(profiles, {"AA": 10_000}, min_penetration=0.0005, min_residents=50))
    s = stats["AA"]
    assert s.residents == 100
    assert s.penetration == 100 / 10_000
    assert s.included
    assert s.reason == ""


def test_low_penetration_excluded():
    profiles = profiles_for({f"u{i}": ["AA"] for i in range(4)})
    stats = stats_by_code(compute_country_stats(profiles, {"AA": 10_000}, min_penetration=0.0005, min_residents=1))
    s = stats["AA"]
    assert not s.included
    assert "penetration" in s.reason


def test_too_few_residents_excluded():
    profiles = profiles_for({f"u{i}": ["AA"] for i in range(20)})
    stats = stats_by_code(compute_country_stats(profiles, {"AA": 1_000}, min_penetration=0.0005, min_residents=100))
    s = stats["AA"]
    assert not s.included
    assert "residents" in s.reason


def test_missing_census_excluded():
    profiles = profiles_for({"u1": ["AA"]})
    stats = stats_by_code(compute_country_stats(profiles, {}, min_residents=1, min_penetration=0.0))
    s = stats["AA"]
    assert not s.included
    assert s.population is None
    assert s.penetration == 0.0
    assert "census" in s.reason


def test_nonpositive_population_excluded():
    profiles = profiles_for({"u1": ["AA"]})
    stats = stats_by_code(compute_country_stats(profiles, {"AA": 0}, min_residents=1, min_penetration=0.0))
    assert not stats["AA"].included


def test_visited_country_without_residents_is_covered():
    profiles = profiles_for({"u1": ["AA", "AA", "BB"]})
    stats = stats_by_code(
        compute_country_stats(profiles, {"AA": 1000, "BB": 1000}, min_residents=1, min_penetration=0.0)
    )
    assert stats["BB"].residents == 0
    assert not stats["BB"].included


def test_gdp_attached_when_given():
    profiles = profiles_for({"u1": ["AA"]})
    stats = stats_by_code(compute_country_stats(
        profiles, {"AA": 1000}, gdp_per_capita={"AA": 41500.5}, min_residents=1, min_penetration=0.0
    ))
    assert stats["AA"].gdp_per_capita == 41500.5


CODES = ["AA", "BB", "CC", "DD"]


@given(
    st.lists(st.lists(st.sampled_from(CODES), min_size=1, max_size=4), min_size=1, max_size=30),
    st.dictionaries(st.sampled_from(CODES), st.integers(-(10**12), 10**12) | st.just(0)),
    st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([0.0, 5e-4, 1e-7, 0.1]),
    st.integers(0, 10**12) | st.sampled_from([0, 1, 3, 10_000]),
)
def test_exclusion_reasons_hold_no_comma(visits, census, min_penetration, min_residents):
    """country_stats.csv writes each reason as one unquoted CSV cell.

    Covers census gaps, zero and negative populations and both thresholds.
    """
    profiles = profiles_for({f"u{i}": countries for i, countries in enumerate(visits)})
    stats = stats_by_code(
        compute_country_stats(profiles, census, min_penetration=min_penetration, min_residents=min_residents)
    )
    for s in stats.values():
        assert "," not in s.reason


@given(
    st.dictionaries(st.sampled_from(["AA", "BB", "CC"]), st.integers(1, 40), min_size=1),
    st.sampled_from([(0.0, 0.001), (0.0005, 0.01)]),
    st.sampled_from([(1, 5), (2, 20)]),
)
def test_tightening_thresholds_never_adds_countries(resident_counts, pens, mins):
    users = {}
    uid = 0
    for country, n in resident_counts.items():
        for _ in range(n):
            users[f"u{uid}"] = [country]
            uid += 1
    profiles = profiles_for(users)
    census = {"AA": 5_000, "BB": 20_000, "CC": 1_000}
    lo_pen, hi_pen = pens
    lo_res, hi_res = mins
    loose = stats_by_code(compute_country_stats(profiles, census, min_penetration=lo_pen, min_residents=lo_res))
    tight = stats_by_code(compute_country_stats(profiles, census, min_penetration=hi_pen, min_residents=hi_res))
    included_loose = {c for c, s in loose.items() if s.included}
    included_tight = {c for c, s in tight.items() if s.included}
    assert included_tight <= included_loose


@given(event_lists())
def test_table_profiles_match_the_object_profiles(events):
    got, want = residence.build_profiles(trajectories_of(events)), build_profiles(events)
    assert got.users == list(want)  # every user of the table has events, in id order
    assert [got.countries[c] for c in got.residence.tolist()] == [p.residence for p in want.values()]
    assert got.total_events.tolist() == [p.total_events for p in want.values()]
    assert got.distinct_countries.tolist() == [p.distinct_countries for p in want.values()]
    pairs = [(got.users[u], got.countries[c]) for u, c in zip(got.user.tolist(), got.country.tolist())]
    assert pairs == [(u, c) for u, p in want.items() for c in sorted(p.counts)]


def test_table_profiles_reject_unlabeled_events():
    with pytest.raises(ValueError, match="country label"):
        residence.build_profiles(table_of([ev("u", 1)]))


def test_table_profiles_are_columns_by_user_code():
    table = table_of(events_fixture() + [ev("u3", 40, country="CC")])
    profiles = residence.build_profiles(table.take(table.user != 2))  # u3's one event goes, its name stays
    assert profiles.users == ["u1", "u2", "u3"] and profiles.countries == ["AA", "BB", "CC"]
    assert profiles.residence.tolist() == [0, 1, -1]
    assert profiles.total_events.tolist() == [3, 1, 0]
    assert profiles.distinct_countries.tolist() == [2, 1, 0]
    assert list(zip(profiles.user.tolist(), profiles.country.tolist())) == [(0, 0), (0, 1), (1, 1)]
    assert [column.tolist() for column in profiles.flows()] == [[0], [1], [1]]  # u1: AA -> BB


def test_table_residence_breaks_ties_as_assign_residence():
    events = [
        ev("count", 1, country="BB"), ev("count", 2, country="AA"), ev("count", 3, country="AA"),
        ev("first", 5, country="AA"), ev("first", 4, country="BB"), ev("first", 6, country="CC"),
        ev("code", 7, country="CC"), ev("code", 7, country="BB"),
    ]
    profiles = residence.build_profiles(trajectories_of(events))
    got = dict(zip(profiles.users, (profiles.countries[c] for c in profiles.residence.tolist())))
    assert got == {"count": "AA", "first": "BB", "code": "BB"}
