"""Independent oracles and tiny builders shared across the test modules.

Everything here re-derives expected values from first principles with its
own arithmetic (different formulations than the package uses), so the tests
cross-check implementations instead of echoing them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from geoflow.community import SPLIT_EPS, Partition, PartitionHierarchy, modularity, optimize_partition
from geoflow.ingest import CountryBoundary, GeoEvent, Trajectory

Edges = Mapping[tuple[str, str], float]

Y2012 = 1325376000  # 2012-01-01T00:00:00Z


def ev(
    user: str,
    ts: int,
    lat: float = 0.0,
    lon: float = 0.0,
    source: str = "app_a",
    country: str | None = None,
) -> GeoEvent:
    return GeoEvent(user_id=user, timestamp=ts, lat=lat, lon=lon, source=source, country=country)


def traj(user: str, *points: tuple[int, float, float]) -> Trajectory:
    """Trajectory from (timestamp, lat, lon) triples, already time-ordered."""
    return Trajectory(user, [ev(user, ts, lat, lon) for ts, lat, lon in points])


def rotate_points(
    points: Sequence[tuple[float, float]], axis: tuple[float, float, float], angle_rad: float
) -> list[tuple[float, float]]:
    """Rigidly rotate (lat, lon) points about an arbitrary axis (Rodrigues)."""
    k = np.asarray(axis, dtype=float)
    k /= np.linalg.norm(k)
    cos_a, sin_a = math.cos(angle_rad), math.sin(angle_rad)
    out = []
    for lat, lon in points:
        phi, lam = math.radians(lat), math.radians(lon)
        v = np.array(
            [math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)]
        )
        r = v * cos_a + np.cross(k, v) * sin_a + k * float(np.dot(k, v)) * (1 - cos_a)
        out.append((math.degrees(math.asin(max(-1.0, min(1.0, r[2])))),
                    math.degrees(math.atan2(r[1], r[0]))))
    return out


def point_in_rings_crossing(x: float, y: float, rings: Iterable[Sequence[tuple[float, float]]]) -> bool:
    """Even-odd test via parametric edge crossings (half-open y intervals).

    Independent formulation of ray casting; only trustworthy for points
    that are not on (or numerically glued to) an edge.
    """
    inside = False
    for ring in rings:
        for (x1, y1), (x2, y2) in zip(ring, list(ring)[1:]):
            if (y1 <= y < y2) or (y2 <= y < y1):
                t = (y - y1) / (y2 - y1)
                if x < x1 + t * (x2 - x1):
                    inside = not inside
    return inside


def _point_on_segment(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """Exact test: (x, y) lies on the closed segment (x1,y1)-(x2,y2)."""
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    if cross != 0.0:
        return False
    return min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2)


def _ray_cast(x: float, y: float, rings: Sequence[Sequence[tuple[float, float]]]) -> bool:
    """Even-odd rule over all rings of one polygon (holes included)."""
    inside = False
    for ring in rings:
        n = len(ring)
        j = n - 1
        for i in range(n):
            xi, yi = ring[i]
            xj, yj = ring[j]
            if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
                inside = not inside
            j = i
    return inside


def _polygon_contains(x: float, y: float, rings: Sequence[Sequence[tuple[float, float]]]) -> bool:
    """Closed containment: interior by even-odd rule, or exactly on any edge."""
    for ring in rings:
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if _point_on_segment(x, y, x1, y1, x2, y2):
                return True
    return _ray_cast(x, y, rings)


class ScalarBoundaryIndex:
    """Reference point-in-polygon lookup: one point, one edge at a time.

    The closed boundary counts as inside, holes follow the even-odd rule,
    and the smallest code wins among countries that contain the point.
    Boundaries are assumed valid (BoundaryIndex checks them). Unlike the
    other oracles here it uses the package's own formulas, evaluated one
    scalar pair at a time, so BoundaryIndex must agree with it exactly.
    """

    def __init__(self, boundaries: Sequence[CountryBoundary]):
        self._entries = []
        for boundary in sorted(boundaries, key=lambda b: b.code):
            for polygon in boundary.polygons:
                xs = [v[0] for ring in polygon for v in ring]
                ys = [v[1] for ring in polygon for v in ring]
                self._entries.append((boundary.code, polygon, (min(xs), min(ys), max(xs), max(ys))))

    def locate(self, lon: float, lat: float) -> str | None:
        hit: str | None = None
        for code, polygon, (x0, y0, x1, y1) in self._entries:
            if hit is not None and code >= hit:
                continue  # entries are code-sorted; min code wins
            if not (x0 <= lon <= x1 and y0 <= lat <= y1):
                continue
            if _polygon_contains(lon, lat, polygon):
                hit = code
        return hit


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions (Bell-number many) of a sequence."""
    n = len(items)

    def rec(i: int, groups: list[list]) -> Iterator[list[list]]:
        if i == n:
            yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(items[i])
            yield from rec(i + 1, groups)
            g.pop()
        groups.append([items[i]])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


def pairwise_q(edges: Edges, assignment: Mapping[str, int], nodes: Iterable[str] | None = None) -> float:
    """Directed modularity as the literal double sum over ordered node pairs."""
    node_list = sorted(set(nodes) if nodes is not None else
                       {u for e in edges for u in e})
    w_tot = sum(edges.values())
    s_out = {u: 0.0 for u in node_list}
    s_in = {u: 0.0 for u in node_list}
    for (u, v), w in edges.items():
        s_out[u] += w
        s_in[v] += w
    q = 0.0
    for u in node_list:
        for v in node_list:
            if assignment[u] == assignment[v]:
                q += edges.get((u, v), 0.0) - s_out[u] * s_in[v] / w_tot
    return q / w_tot


def strength_q(edges: Edges, groups: Sequence[Sequence[str]]) -> float:
    """Directed modularity from per-community strengths (second formulation)."""
    w_tot = sum(edges.values())
    s_out: dict[str, float] = {}
    s_in: dict[str, float] = {}
    for (u, v), w in edges.items():
        s_out[u] = s_out.get(u, 0.0) + w
        s_in[v] = s_in.get(v, 0.0) + w
    q = 0.0
    for g in groups:
        members = set(g)
        internal = sum(w for (u, v), w in edges.items() if u in members and v in members)
        so = sum(s_out.get(u, 0.0) for u in g)
        si = sum(s_in.get(u, 0.0) for u in g)
        q += internal - so * si / w_tot
    return q / w_tot


def brute_best_q(edges: Edges, nodes: Sequence[str]) -> float:
    """Exact maximum modularity by exhaustive set-partition enumeration."""
    best = -2.0
    for groups in set_partitions(list(nodes)):
        q = strength_q(edges, groups)
        if q > best:
            best = q
    return best


def random_digraph(seed: int, n: int, p: float = 0.35, lo: float = 0.5, hi: float = 5.0) -> Edges:
    """Random weighted digraph on nodes a, b, c, ... with edge density p."""
    names = [chr(97 + i) if n <= 26 else f"n{i:03d}" for i in range(n)]
    rng = np.random.default_rng(seed)
    edges: dict[tuple[str, str], float] = {}
    for u in names:
        for v in names:
            if u != v and rng.random() < p:
                edges[(u, v)] = float(round(rng.uniform(lo, hi), 3))
    if not edges:  # guarantee a usable graph
        edges[(names[0], names[1])] = 1.0
    return edges


def nested_fixture() -> tuple[dict[tuple[str, str], float], list[list[str]], list[list[str]]]:
    """16-node two-super/four-sub benchmark with weights 10 / 1 / 0.01.

    Sub-blocks are directed 4-cycles of weight 10; cross-sub edges inside a
    super-block weigh 1, cross-super edges 0.01 (both complete). Returns
    (edges, super_groups, sub_groups).
    """
    m = 4
    nodes = [f"m{i:02d}" for i in range(4 * m)]
    edges: dict[tuple[str, str], float] = {}
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i == j:
                continue
            sub_i, sub_j = i // m, j // m
            if sub_i == sub_j:
                if j == sub_i * m + (i - sub_i * m + 1) % m:
                    edges[(u, v)] = 10.0
            elif i // (2 * m) == j // (2 * m):
                edges[(u, v)] = 1.0
            else:
                edges[(u, v)] = 0.01
    supers = [nodes[:8], nodes[8:]]
    subs = [nodes[0:4], nodes[4:8], nodes[8:12], nodes[12:16]]
    return edges, supers, subs


def groups_of(assignment: Mapping[str, int]) -> list[list[str]]:
    """Communities of an assignment as sorted lists, order-normalized."""
    by_comm: dict[int, list[str]] = {}
    for node, comm in assignment.items():
        by_comm.setdefault(comm, []).append(node)
    return sorted(sorted(g) for g in by_comm.values())


def reference_hierarchical_partition(
    graph: Edges,
    max_levels: int = 3,
    seed: int = 0,
    restarts: int = 20,
    nodes: Iterable[str] | None = None,
    min_split_size: int = 3,
) -> PartitionHierarchy:
    """Hierarchy rebuilt from the public optimizer on explicit edge dicts.

    Each community's induced sub-network is scanned out of the whole edge
    mapping and optimized on its own, each level is scored with
    `modularity`, and the bookkeeping runs on node -> id dicts. The
    package slices one dense matrix instead; both must agree exactly.
    """
    node_list = None if nodes is None else list(nodes)
    top = optimize_partition(graph, seed=seed, restarts=restarts, nodes=node_list)
    levels = [top]
    parents: list[dict[int, int | None]] = [{cid: None for cid in sorted(set(top.assignment.values()))}]
    for level in range(2, max_levels + 1):
        members_of: dict[int, list[str]] = {}
        for node, cid in levels[-1].assignment.items():
            members_of.setdefault(cid, []).append(node)
        new_assignment: dict[str, int] = {}
        parent_of: dict[int, int | None] = {}
        next_id = 0
        for cid in sorted(members_of):
            members = sorted(members_of[cid])
            groups = [members]
            if len(members) >= min_split_size:
                inside = set(members)
                sub_edges = {(u, v): w for (u, v), w in graph.items() if u in inside and v in inside}
                if math.fsum(sub_edges.values()) > 0.0:
                    sub_seed = int(np.random.SeedSequence([seed, level, cid]).generate_state(1)[0])
                    sub = optimize_partition(sub_edges, seed=sub_seed, restarts=restarts, nodes=members)
                    if sub.n_communities > 1 and sub.q > SPLIT_EPS:
                        groups = sub.communities()
            for group in groups:
                for node in group:
                    new_assignment[node] = next_id
                parent_of[next_id] = cid
                next_id += 1
        q = modularity(graph, new_assignment, nodes=node_list)
        levels.append(Partition(assignment=new_assignment, q=q))
        parents.append(parent_of)
    return PartitionHierarchy(levels=levels, parents=parents)
