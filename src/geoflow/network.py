"""Directed country-to-country flow network.

Edges count distinct resident users of the origin seen in the destination.
Normalization divides each edge by the origin's penetration rate to
estimate people flow, after dropping countries with too little outgoing
population or penetration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .residence import UserTable


@dataclass(slots=True)
class FlowNetwork:
    """Directed weighted graph over codes of the sorted vocabulary `countries`, so code order is name order;
    no self-loops.

    Per node, in code order: its code and outgoing population (distinct mobile residents). Per edge, in
    (origin, destination) code order: its two codes, a row of `edges`, its distinct users and its people
    estimate, which normalize_and_filter sets."""

    countries: list[str]
    nodes: np.ndarray
    mobile_residents: np.ndarray
    edges: np.ndarray  # (n, 2): origin, destination
    raw_weight: np.ndarray
    est_weight: np.ndarray | None = None


def build_flow_network(profiles: UserTable) -> FlowNetwork:
    """Edges (residence -> visited country) weighted by distinct users.

    A user visiting the same country repeatedly still counts once per edge;
    a user visiting two countries feeds two edges. Every country seen in
    any profile becomes a node, even without incident edges.
    """
    n = len(profiles.countries)
    nodes = np.flatnonzero(np.bincount(profiles.country, minlength=n))
    mobile = np.bincount(profiles.residence[profiles.distinct_countries >= 2], minlength=n)
    origin, destination, users = profiles.flows()
    return FlowNetwork(profiles.countries, nodes, mobile[nodes], np.stack((origin, destination), axis=1), users)


def normalize_and_filter(
    network: FlowNetwork,
    stats: Mapping[str, Sequence[Any]],
    min_outgoing: int = 500,
    min_penetration: float = 0.0005,
) -> FlowNetwork:
    """Drop under-covered countries, then convert raw flows to people estimates.

    `stats` holds the code and penetration columns of country_stats.csv. A
    country survives when its outgoing population (distinct mobile
    residents) reaches min_outgoing and its penetration reaches
    min_penetration; failing either removes the node with all incident
    edges. A country whose penetration is zero or unknown never survives,
    since its flows cannot be scaled to people. Surviving edges get
    est_weight = raw_weight / penetration(origin).
    """
    share = dict(zip(stats["code"], stats["penetration"]))
    p = np.array([share.get(network.countries[c], 0.0) for c in network.nodes.tolist()], dtype=float)
    keep = (p > 0.0) & (p >= min_penetration) & (network.mobile_residents >= min_outgoing)
    penetration = np.zeros(len(network.countries))  # 0 for a country that does not survive
    penetration[network.nodes[keep]] = p[keep]
    surviving = (penetration[network.edges] > 0.0).all(axis=1)
    edges, raw = network.edges[surviving], network.raw_weight[surviving]
    return FlowNetwork(network.countries, network.nodes[keep], network.mobile_residents[keep], edges, raw,
                       raw / penetration[edges[:, 0]])


def _est_weight(network: FlowNetwork) -> np.ndarray:
    if network.est_weight is None:
        raise ValueError("the network's edges have no est weight; normalize first")
    return network.est_weight


def inflow_outflow_balance(network: FlowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the estimated inflow and outflow: math.fsum of the est weights of the edges into and out of it
    (ValueError for a network with no est weights)."""
    weight = _est_weight(network)
    sums = []
    for end in (1, 0):  # destinations take inflow, origins outflow
        order = np.argsort(network.edges[:, end], kind="stable")
        ends, weights = network.edges[order, end], weight[order].tolist()
        cuts = zip(*(np.searchsorted(ends, network.nodes, side).tolist() for side in ("left", "right")))
        sums.append(np.array([math.fsum(weights[lo:hi]) for lo, hi in cuts], dtype=float))
    return sums[0], sums[1]


def top_k_flows(network: FlowNetwork, k: int = 30) -> np.ndarray:
    """The edge rows of the k heaviest edges by est weight, which every edge needs; ties in code order."""
    return np.argsort(-_est_weight(network), kind="stable")[: max(k, 0)]
