"""Directed country-to-country flow network.

Edges count distinct resident users of the origin seen in the destination.
Normalization divides each edge by the origin's penetration rate to
estimate people flow, after dropping countries with too little outgoing
population or penetration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .residence import CountryStats, UserTable


@dataclass(slots=True)
class FlowEdge:
    origin: str
    destination: str
    raw_weight: int  # distinct users
    est_weight: float | None = None  # people estimate, set by normalization


@dataclass(slots=True)
class FlowNetwork:
    """Directed weighted graph over country codes; no self-loops."""

    nodes: list[str]  # sorted codes
    edges: dict[tuple[str, str], FlowEdge]
    mobile_residents: dict[str, int]  # outgoing population per node


def build_flow_network(profiles: UserTable) -> FlowNetwork:
    """Edges (residence -> visited country) weighted by distinct users.

    A user visiting the same country repeatedly still counts once per edge;
    a user visiting two countries feeds two edges. Every country seen in
    any profile becomes a node, even without incident edges.
    """
    names = profiles.countries
    nodes = np.flatnonzero(np.bincount(profiles.country, minlength=len(names)))
    mobile = np.bincount(profiles.residence[profiles.distinct_countries >= 2], minlength=len(names))
    edges = {
        (names[o], names[d]): FlowEdge(origin=names[o], destination=names[d], raw_weight=w)
        for o, d, w in zip(*(column.tolist() for column in profiles.flows()))
    }
    return FlowNetwork(
        nodes=[names[c] for c in nodes.tolist()],
        edges=edges,
        mobile_residents={names[c]: m for c, m in zip(nodes.tolist(), mobile[nodes].tolist())},
    )


def normalize_and_filter(
    network: FlowNetwork,
    stats: Mapping[str, CountryStats],
    min_outgoing: int = 500,
    min_penetration: float = 0.0005,
) -> FlowNetwork:
    """Drop under-covered countries, then convert raw flows to people estimates.

    A country survives when its outgoing population (distinct mobile
    residents) reaches min_outgoing and its penetration reaches
    min_penetration; failing either removes the node with all incident
    edges. A country whose penetration is zero or unknown never survives,
    since its flows cannot be scaled to people. Surviving edges get
    est_weight = raw_weight / penetration(origin).
    """
    penetration: dict[str, float] = {}
    for code in network.nodes:
        st = stats.get(code)
        p = st.penetration if st is not None else 0.0
        if p > 0.0 and p >= min_penetration and network.mobile_residents.get(code, 0) >= min_outgoing:
            penetration[code] = p
    surviving = list(penetration)
    edges: dict[tuple[str, str], FlowEdge] = {}
    for (origin, destination), edge in sorted(network.edges.items()):
        if origin not in penetration or destination not in penetration:
            continue
        edges[(origin, destination)] = FlowEdge(
            origin=origin,
            destination=destination,
            raw_weight=edge.raw_weight,
            est_weight=edge.raw_weight / penetration[origin],
        )
    return FlowNetwork(
        nodes=surviving,
        edges=edges,
        mobile_residents={c: network.mobile_residents.get(c, 0) for c in surviving},
    )


def _est_weight(edge: FlowEdge) -> float:
    if edge.est_weight is None:
        raise ValueError(f"edge {edge.origin}->{edge.destination} has no est weight; normalize first")
    return edge.est_weight


@dataclass(slots=True)
class BalanceEntry:
    code: str
    inflow: float
    outflow: float
    balance: float  # inflow - outflow


def inflow_outflow_balance(network: FlowNetwork) -> dict[str, BalanceEntry]:
    """Per-country estimated inflow, outflow, and their difference (ValueError for an edge with no est weight)."""
    inflows: dict[str, list[float]] = {c: [] for c in network.nodes}
    outflows: dict[str, list[float]] = {c: [] for c in network.nodes}
    for (origin, destination), edge in sorted(network.edges.items()):
        weight = _est_weight(edge)
        outflows[origin].append(weight)
        inflows[destination].append(weight)
    out: dict[str, BalanceEntry] = {}
    for code in network.nodes:
        inflow = math.fsum(inflows[code])
        outflow = math.fsum(outflows[code])
        out[code] = BalanceEntry(code=code, inflow=inflow, outflow=outflow, balance=inflow - outflow)
    return out


def top_k_flows(network: FlowNetwork, k: int = 30) -> list[FlowEdge]:
    """The k heaviest edges by est weight, which every edge needs, ties by (origin, destination) code order."""
    ranked = sorted(network.edges.values(), key=lambda edge: (-_est_weight(edge), edge.origin, edge.destination))
    return ranked[: max(k, 0)]
