"""Country-to-country flow network: construction, normalization, balances."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from geoflow import residence
from geoflow.network import (
    FlowNetwork,
    build_flow_network,
    inflow_outflow_balance,
    normalize_and_filter,
    top_k_flows,
)
from geoflow.residence import compute_country_stats
from helpers import balance_entries, ev, flow_edges, network_objects, stats_by_code, trajectories_of


def profiles_from(visits):
    """visits: {user: [home, home, abroad, ...]} with plurality at index 0."""
    events = []
    for user, countries in visits.items():
        for i, country in enumerate(countries):
            events.append(ev(user, i + 1, country=country))
    return residence.build_profiles(trajectories_of(events))


# ---------------------------------------------------------------- construction


def test_edge_counts_distinct_visitors():
    profiles = profiles_from(
        {
            "u1": ["AA", "AA", "BB"],
            "u2": ["AA", "AA", "BB"],
            "u3": ["AA", "AA", "BB", "BB", "BB"],  # plurality still AA? no: BB wins
        }
    )
    # u3's plurality is BB, so only u1 and u2 contribute to AA->BB
    network = network_objects(build_flow_network(profiles))
    assert network.edges[("AA", "BB")].raw_weight == 2
    assert network.edges[("AA", "BB")].est_weight is None  # not normalized


def test_repeat_visits_count_once():
    profiles = profiles_from({"u1": ["AA", "AA", "BB", "BB"]})
    # u1: 2 events in AA, 2 in BB, tie -> earlier first seen -> AA
    network = network_objects(build_flow_network(profiles))
    assert network.edges[("AA", "BB")].raw_weight == 1


def test_multiple_destinations_create_multiple_edges():
    profiles = profiles_from({"u1": ["AA", "AA", "BB", "CC"]})
    network = network_objects(build_flow_network(profiles))
    assert network.edges[("AA", "BB")].raw_weight == 1
    assert network.edges[("AA", "CC")].raw_weight == 1
    assert ("BB", "CC") not in network.edges


def test_nodes_cover_all_seen_countries_sorted():
    profiles = profiles_from({"u1": ["CC", "CC", "AA"], "u2": ["BB", "BB"]})
    network = network_objects(build_flow_network(profiles))
    assert network.nodes == ["AA", "BB", "CC"]


def test_immobile_users_make_no_edges():
    profiles = profiles_from({"u1": ["AA", "AA"], "u2": ["BB"]})
    network = network_objects(build_flow_network(profiles))
    assert network.edges == {}
    assert network.mobile_residents == {"AA": 0, "BB": 0}


def test_mobile_residents_counted_per_origin():
    profiles = profiles_from({"u1": ["AA", "AA", "BB"], "u2": ["AA", "AA"], "u3": ["BB", "BB", "AA"]})
    network = network_objects(build_flow_network(profiles))
    assert network.mobile_residents == {"AA": 1, "BB": 1}


@given(
    st.dictionaries(
        st.integers(0, 30),
        st.tuples(
            st.sampled_from(["AA", "BB", "CC"]),
            st.sets(st.sampled_from(["AA", "BB", "CC", "DD"]), max_size=3),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_total_raw_weight_equals_distinct_foreign_visits(layout):
    visits = {}
    for uid, (home, seen) in layout.items():
        visits[f"u{uid}"] = [home, home, home] + sorted(seen - {home})
    profiles = profiles_from(visits)
    network = network_objects(build_flow_network(profiles))
    want = sum(len(set(countries[3:])) for countries in visits.values())
    got = sum(edge.raw_weight for edge in network.edges.values())
    assert got == want


# ---------------------------------------------------------------- normalization


def included_stats(residents_by_country, population=100_000):
    profiles = profiles_from(
        {f"{c}{i}": [c] for c, n in residents_by_country.items() for i in range(n)}
    )
    return compute_country_stats(
        profiles, {c: population for c in residents_by_country}, min_penetration=0.0, min_residents=1
    )


def test_est_weight_divides_by_origin_penetration():
    profiles = profiles_from(
        {"u%d" % i: ["AA", "AA", "BB"] for i in range(50)}
        | {"v%d" % i: ["BB", "BB", "AA"] for i in range(10)}
    )
    stats = compute_country_stats(
        profiles, {"AA": 5_000, "BB": 5_000}, min_penetration=0.0, min_residents=1
    )
    network = build_flow_network(profiles)
    normalized = network_objects(normalize_and_filter(network, stats, min_outgoing=1, min_penetration=0.0))
    # 50 travelers / (50 residents / 5000 census) = 5000 estimated people
    assert normalized.edges[("AA", "BB")].est_weight == pytest.approx(5000.0)
    # 10 travelers / (10/5000) = 5000 as well
    assert normalized.edges[("BB", "AA")].est_weight == pytest.approx(5000.0)


def test_min_outgoing_drops_origin_and_incident_edges():
    profiles = profiles_from({"u1": ["AA", "AA", "BB"], "u2": ["BB", "BB", "AA"]})
    stats = included_stats({"AA": 1, "BB": 1})
    network = build_flow_network(profiles)
    normalized = network_objects(normalize_and_filter(network, stats, min_outgoing=2, min_penetration=0.0))
    assert normalized.nodes == []
    assert normalized.edges == {}


def test_min_penetration_drops_country():
    profiles = profiles_from(
        {"u%d" % i: ["AA", "AA", "BB"] for i in range(5)}
        | {"v%d" % i: ["BB", "BB", "AA"] for i in range(5)}
    )
    stats = compute_country_stats(
        profiles, {"AA": 1_000, "BB": 1_000_000}, min_penetration=0.0, min_residents=1
    )
    network = build_flow_network(profiles)
    normalized = network_objects(normalize_and_filter(network, stats, min_outgoing=1, min_penetration=0.001))
    assert normalized.nodes == ["AA"]  # BB's penetration 5e-6 falls short
    assert normalized.edges == {}  # its counter-edges went with it


def test_edges_survive_only_between_surviving_nodes():
    profiles = profiles_from(
        {
            "u1": ["AA", "AA", "BB"],
            "u2": ["AA", "AA", "CC"],
            "u3": ["BB", "BB", "AA"],
        }
    )
    stats = included_stats({"AA": 2, "BB": 1, "CC": 0} | {})
    network = build_flow_network(profiles)
    normalized = network_objects(normalize_and_filter(network, stats, min_outgoing=1, min_penetration=0.0))
    # CC has no mobile residents -> dropped -> AA->CC edge goes away
    assert set(normalized.edges) == {("AA", "BB"), ("BB", "AA")}


# ---------------------------------------------------------------- balances


def normalized_fixture():
    profiles = profiles_from(
        {
            "u%d" % i: ["AA", "AA", "BB"] for i in range(10)
        }
        | {"v0": ["BB", "BB", "AA"]}
    )
    stats = included_stats({"AA": 10, "BB": 1})
    network = build_flow_network(profiles)
    return normalize_and_filter(network, stats, min_outgoing=1, min_penetration=0.0)


def test_balance_entries_are_inflow_minus_outflow():
    columns = normalized_fixture()
    network, balances = network_objects(columns), balance_entries(columns, inflow_outflow_balance(columns))
    aa, bb = balances["AA"], balances["BB"]
    est_ab = network.edges[("AA", "BB")].est_weight
    est_ba = network.edges[("BB", "AA")].est_weight
    assert aa.outflow == pytest.approx(est_ab)
    assert aa.inflow == pytest.approx(est_ba)
    assert aa.balance == pytest.approx(est_ba - est_ab)
    assert bb.balance == pytest.approx(est_ab - est_ba)


def test_balances_require_normalized_network():
    profiles = profiles_from({"u1": ["AA", "AA", "BB"]})
    network = build_flow_network(profiles)
    with pytest.raises(ValueError):
        inflow_outflow_balance(network)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([("AA", "BB"), ("BB", "CC"), ("CC", "AA"), ("AA", "CC")]),
            st.floats(min_value=0.001, max_value=1e7, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda t: t[0],
    )
)
def test_balances_resum_to_zero_for_arbitrary_est_weights(rows):
    """Every edge is one country's inflow and another's outflow, whatever the float weights."""
    rows = sorted(rows)
    countries = sorted({c for pair, _ in rows for c in pair})
    nodes = np.arange(len(countries))
    edges = np.array([[countries.index(c) for c in pair] for pair, _ in rows])
    network = FlowNetwork(countries, nodes, np.ones(len(nodes), dtype=np.int64), edges,
                          np.ones(len(rows), dtype=np.int64), np.array([w for _, w in rows]))
    balances = balance_entries(network, inflow_outflow_balance(network))
    # and the per-country entries re-sum to ~zero (float path, loose bound)
    assert math.fsum(b.balance for b in balances.values()) == pytest.approx(
        0.0, abs=1e-9 * max(w for _, w in rows)
    )


# ---------------------------------------------------------------- top flows


def test_top_k_orders_by_weight_then_codes():
    profiles = profiles_from(
        {
            "u1": ["AA", "AA", "BB"],
            "u2": ["AA", "AA", "BB"],
            "u3": ["CC", "CC", "AA"],
            "u4": ["BB", "BB", "CC"],
        }
    )
    stats = included_stats({"AA": 1, "BB": 2, "CC": 2})  # est weights 2e5, 5e4 and 5e4
    network = normalize_and_filter(build_flow_network(profiles), stats, min_outgoing=1, min_penetration=0.0)
    flows, everything = (flow_edges(network, top_k_flows(network, k=k)) for k in (2, 50))
    assert [(f.origin, f.destination) for f in flows] == [("AA", "BB"), ("BB", "CC")]
    assert len(everything) == 3
    # ties fall back to code order
    assert [(f.origin, f.destination) for f in everything[1:]] == [
        ("BB", "CC"),
        ("CC", "AA"),
    ]


def test_top_k_est_mode_requires_normalization():
    profiles = profiles_from({"u1": ["AA", "AA", "BB"]})
    network = build_flow_network(profiles)
    with pytest.raises(ValueError):
        top_k_flows(network, k=1)


def test_country_without_penetration_never_survives():
    profiles = profiles_from(
        {"u%d" % i: ["AA", "AA", "BB"] for i in range(5)}
        | {"v%d" % i: ["BB", "BB", "AA"] for i in range(5)}
    )
    stats = compute_country_stats(profiles, {"BB": 1_000}, min_penetration=0.0, min_residents=1)
    network = build_flow_network(profiles)
    normalized = network_objects(normalize_and_filter(network, stats, min_outgoing=1, min_penetration=0.0))
    assert normalized.nodes == ["BB"]  # AA has no census row, so penetration 0
    assert normalized.edges == {}
    stats = {name: column[:1] for name, column in stats.items()}  # BB's row gone: its penetration is unknown
    assert normalize_and_filter(network, stats, min_outgoing=1, min_penetration=0.0).nodes.tolist() == []


def test_missing_est_weight_is_a_value_error():
    profiles = profiles_from({"u1": ["AA", "AA", "BB"]})
    network = build_flow_network(profiles)  # not normalized: its edge carries no est weight
    with pytest.raises(ValueError, match="no est weight"):
        inflow_outflow_balance(network)
    with pytest.raises(ValueError, match="no est weight"):
        top_k_flows(network)


# ---------------------------------------------------------------- columns against the record oracle


@given(
    st.dictionaries(
        st.integers(0, 40),
        st.tuples(st.sampled_from(["AA", "BB", "CC", "DD"]), st.sets(st.sampled_from(["AA", "BB", "CC", "DD", "EE"]))),
        min_size=1,
        max_size=40,
    ),
    st.dictionaries(st.sampled_from(["AA", "BB", "CC", "DD", "EE"]), st.sampled_from([-5, 0, 1_000, 3_000, 10**12])),
    st.integers(0, 4),
    st.sampled_from([0.0, 1e-3, 5e-3, 0.5]),
    st.integers(-1, 25),
)
@example({0: ("AA", {"BB"}), 1: ("BB", {"AA"}), 2: ("CC", {"AA"})}, {"AA": 1_000, "BB": 2_000}, 1, 1e-3, 5)
def test_columnar_network_matches_the_record_oracle(layout, census, min_outgoing, min_penetration, k):
    """The network, its balances and its top flows, bit for bit as the record oracle gives them.

    The census misses countries or gives them a population of 0 or below, the gates drop nodes, and equal
    populations and visitor counts tie est weights. In the example AA's penetration is the gate itself."""
    profiles = profiles_from({f"u{uid}": [home] * 3 + sorted(seen - {home}) for uid, (home, seen) in layout.items()})
    stats = compute_country_stats(profiles, census, min_penetration=0.0, min_residents=1)
    raw = build_flow_network(profiles)
    network = normalize_and_filter(raw, stats, min_outgoing=min_outgoing, min_penetration=min_penetration)
    want = helpers.normalize_and_filter(network_objects(raw), stats_by_code(stats), min_outgoing, min_penetration)
    assert repr(network_objects(network)) == repr(want)
    assert repr(balance_entries(network, inflow_outflow_balance(network))) == repr(helpers.inflow_outflow_balance(want))
    assert repr(flow_edges(network, top_k_flows(network, k=k))) == repr(helpers.top_k_flows(want, k=k))
