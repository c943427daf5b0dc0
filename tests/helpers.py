"""Independent oracles and tiny builders shared across the test modules.

Everything here re-derives expected values from first principles with its
own arithmetic (different formulations than the package uses), so the tests
cross-check implementations instead of echoing them.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from geoflow import ingest, tables
from geoflow.clean import CleaningStats
from geoflow.community import MIN_SPLIT_SIZE, SPLIT_EPS, Partition, PartitionHierarchy, modularity, optimize_partition
from geoflow.ingest import (
    MAX_ERRORS,
    BoundaryIndex,
    CountryBoundary,
    EventTable,
    GeoEvent,
    _looks_like_header,
    _parse_line,
    load_boundaries,
)
from geoflow.models import _LOG_BIN_BASE
from geoflow.network import FlowNetwork as FlowColumns
from geoflow.sphere import haversine_km, normalize_lon
from geoflow.synth import (
    _MAX_FOREIGN_EVENTS,
    _SOURCE_PATTERN,
    HUMAN_SOURCES,
    KM_PER_DEG_LAT,
    KM_PER_DEG_LON_EQ,
    MAX_EXTRA_GAP,
    SECONDS_PER_HOUR,
    SECONDS_PER_KM,
    SynthTruth,
    SynthWorld,
    expected_flows,
)

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
            if len(members) >= MIN_SPLIT_SIZE:
                inside = set(members)
                sub_edges = {(u, v): w for (u, v), w in graph.items() if u in inside and v in inside}
                if math.fsum(sub_edges.values()) > 0.0:
                    sub_seed = int(np.random.SeedSequence([seed, level, cid]).generate_state(1)[0])
                    sub = optimize_partition(sub_edges, seed=sub_seed, restarts=restarts, nodes=members)
                    if sub.n_communities > 1 and sub.q > SPLIT_EPS:
                        groups = [[u for u in members if sub.assignment[u] == c] for c in range(sub.n_communities)]
            for group in groups:
                for node in group:
                    new_assignment[node] = next_id
                parent_of[next_id] = cid
                next_id += 1
        q = modularity(graph, new_assignment, nodes=node_list)
        levels.append(Partition(assignment=new_assignment, q=q))
        parents.append(parent_of)
    return PartitionHierarchy(levels=levels, parents=parents)


# ---------------------------------------------------------------------------
# Object-based event pipeline: one GeoEvent per event and one UserProfile
# per user, one Python step per event. The package's columnar EventTable
# and UserTable layers must agree with these exactly, row for row and bit
# for bit.
# ---------------------------------------------------------------------------


def table_of(events: Iterable[GeoEvent]) -> EventTable:
    """The EventTable of some events, through their event-table lines (floats round-trip exactly)."""
    lines = [f"{e.user_id},{e.timestamp},{e.lat!r},{e.lon!r},{e.source},{e.country or ''}" for e in events]
    return ingest.parse_events(["user_id,timestamp,lat,lon,source,country", *lines]).events


def trajectories_of(events: Iterable[GeoEvent]) -> EventTable:
    """table_of the events, in trajectory order (ingest.build_trajectories), as the clean stage writes them."""
    table = table_of(events)
    return table.take(ingest.build_trajectories(table))


def events_of(table: EventTable) -> list[GeoEvent]:
    """The rows of an EventTable as GeoEvents."""
    columns = (table.user, table.timestamp, table.lat, table.lon, table.source, table.country)
    return [
        GeoEvent(table.users[u], t, lat, lon, table.sources[s], table.countries[c] if c >= 0 else None)
        for u, t, lat, lon, s, c in zip(*(column.tolist() for column in columns))
    ]


@dataclass(slots=True)
class Trajectory:
    """All events of one user, sorted by (timestamp, input order)."""

    user_id: str
    events: list[GeoEvent]


@dataclass(slots=True)
class ObjectParseReport:
    events: list[GeoEvent]
    errors: list[tuple[int, str]]
    n_lines: int = 0
    header_skipped: bool = False
    n_malformed: int = 0


def parse_events(stream: Iterable[str] | Iterable[bytes]) -> ObjectParseReport:
    """ingest.parse_events with one GeoEvent per well-formed line."""
    report = ObjectParseReport(events=[], errors=[])
    for lineno, line in enumerate(stream, start=1):
        report.n_lines = lineno
        try:
            line = (line.decode("utf-8") if isinstance(line, bytes) else line).rstrip("\r\n")
            if not line.strip():
                raise ValueError("blank line")
            parts = line.split(",")
            if lineno == 1 and _looks_like_header(parts):
                report.header_skipped = True
                continue
            report.events.append(GeoEvent(*_parse_line(parts)))
        except ValueError as exc:
            report.n_malformed += 1
            if len(report.errors) < MAX_ERRORS:
                report.errors.append((lineno, "invalid UTF-8" if isinstance(exc, UnicodeDecodeError) else str(exc)))
    return report


def write_events(path: str, events: Sequence[GeoEvent]) -> None:
    with tables.replacing(path) as fh:
        fh.write(",".join(tables.EVENT_HEADER) + "\n")
        for e in events:
            fh.write(f"{e.user_id},{e.timestamp},{e.lat!r},{e.lon!r},{e.source},{e.country or ''}\n")


def read_events(path: str) -> list[GeoEvent]:
    with open(path, encoding="utf-8") as fh:
        report = parse_events(fh)
    if report.errors:
        lineno, reason = report.errors[0]
        raise ValueError(f"{path}:{lineno}: {reason}")
    return report.events


def read_reference(path: str, column: int = 1) -> dict[str, float]:
    """One numeric column of a reference table, as `validate` reads each of its legs."""
    return tables.reference_column(path, tables.code_rows(path), column)


def label_events(events: list[GeoEvent], index: BoundaryIndex | None) -> tuple[list[GeoEvent], int]:
    """Attach country labels in place; returns (labeled events, dropped count)."""
    if index is not None:
        for event in events:
            if event.country is None:
                event.country = index.locate(event.lon, event.lat)
    labeled = [event for event in events if event.country is not None]
    return labeled, len(events) - len(labeled)


def build_trajectories(events: list[GeoEvent]) -> dict[str, Trajectory]:
    """Per-user trajectories sorted by (timestamp, input order), users in id order."""
    grouped: dict[str, list[GeoEvent]] = {}
    for event in events:
        grouped.setdefault(event.user_id, []).append(event)
    out: dict[str, Trajectory] = {}
    for user_id in sorted(grouped):
        evs = grouped[user_id]
        evs.sort(key=lambda e: e.timestamp)  # stable: input order preserved on ties
        out[user_id] = Trajectory(user_id=user_id, events=evs)
    return out


def speed_filter(trajectory: Trajectory, max_speed_kmh: float = 1000.0) -> tuple[Trajectory, int]:
    """Sequential scan against the last retained event (see clean.speed_filter)."""
    events = trajectory.events
    if len(events) <= 1:
        return Trajectory(trajectory.user_id, list(events)), 0
    kept = [events[0]]
    removed = 0
    for event in events[1:]:
        last = kept[-1]
        dist = haversine_km((last.lat, last.lon), (event.lat, event.lon))
        gap = event.timestamp - last.timestamp
        if gap == 0:
            ok = dist == 0.0
        else:
            ok = dist * 3600.0 <= max_speed_kmh * gap
        if ok:
            kept.append(event)
        else:
            removed += 1
    return Trajectory(trajectory.user_id, kept), removed


def rank_sources(events: list[GeoEvent], weight_mode: str = "users") -> dict[str, list[tuple[str, int]]]:
    """Per-country source ranking by mass, heaviest first, ties by source name."""
    if weight_mode not in ("users", "events"):
        raise ValueError(f"weight_mode must be 'users' or 'events', got {weight_mode!r}")
    if weight_mode == "users":
        seen: dict[str, dict[str, set[str]]] = {}
        for event in events:
            if event.country is None:
                raise ValueError(f"event of user {event.user_id!r} has no country label")
            seen.setdefault(event.country, {}).setdefault(event.source, set()).add(event.user_id)
        masses = {c: {s: len(u) for s, u in per.items()} for c, per in seen.items()}
    else:
        masses = {}
        for event in events:
            if event.country is None:
                raise ValueError(f"event of user {event.user_id!r} has no country label")
            per = masses.setdefault(event.country, {})
            per[event.source] = per.get(event.source, 0) + 1
    return {
        country: sorted(per.items(), key=lambda kv: (-kv[1], kv[0]))
        for country, per in sorted(masses.items())
    }


def source_popularity_filter(
    events: list[GeoEvent], coverage: float = 0.95, weight_mode: str = "users"
) -> tuple[dict[str, set[str]], list[GeoEvent], CleaningStats]:
    """clean.source_popularity_filter returning the kept events instead of a mask."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    rankings = rank_sources(events, weight_mode)
    share = Fraction(str(coverage))
    retained: dict[str, set[str]] = {}
    for country, ranking in rankings.items():
        total = sum(mass for _, mass in ranking)
        threshold = share * total
        cumulative = 0
        keep: list[str] = []
        for source, mass in ranking:
            keep.append(source)
            cumulative += mass
            if cumulative >= threshold:
                break
        retained[country] = set(keep)
    filtered = apply_source_filter(events, retained)
    stats = CleaningStats(
        rankings=rankings,
        users_before=len({e.user_id for e in events}),
        users_after=len({e.user_id for e in filtered}),
        events_before=len(events),
        events_after=len(filtered),
    )
    return retained, filtered, stats


def apply_source_filter(events: list[GeoEvent], retained: dict[str, set[str]]) -> list[GeoEvent]:
    """Drop events whose (country, source) is not in the frozen retained map."""
    out: list[GeoEvent] = []
    for event in events:
        if event.country is None:
            raise ValueError(f"event of user {event.user_id!r} has no country label")
        if event.source in retained.get(event.country, ()):
            out.append(event)
    return out


@dataclass(slots=True)
class UserProfile:
    """Per-user event footprint over the analysis year."""

    user_id: str
    counts: dict[str, int]  # country -> event count
    first_seen: dict[str, int]  # country -> earliest timestamp there
    residence: str
    distinct_countries: int

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())


def assign_residence(counts: Mapping[str, int], first_seen: Mapping[str, int]) -> str:
    """Country with the most events; ties to earliest activity, then code order."""
    if not counts:
        raise ValueError("empty counts")
    best = max(counts.values())
    tied = [c for c, n in counts.items() if n == best]
    if len(tied) > 1:
        earliest = min(first_seen[c] for c in tied)
        tied = [c for c in tied if first_seen[c] == earliest]
    return min(tied)


def is_mobile(profile: UserProfile) -> bool:
    """True iff the user was seen in a country other than their residence."""
    return profile.distinct_countries >= 2


def destination_diversity(country: str, profiles: Mapping[str, UserProfile]) -> int:
    """Distinct foreign countries appearing in any resident's event counts."""
    visited: set[str] = set()
    for profile in profiles.values():
        if profile.residence == country:
            visited.update(c for c in profile.counts if c != country)
    return len(visited)


@dataclass(slots=True)
class CountryStats:
    """Residents vs census population, with inclusion verdict: a row of country_stats.csv."""

    code: str
    residents: int
    population: int | None
    penetration: float  # residents / population, 0 when population unknown
    included: bool
    gdp_per_capita: float | None = None
    reason: str = ""  # empty when included


@dataclass(slots=True)
class MobilityProfile:
    """Country-level mobility summary: a row of mobility_profiles.csv."""

    code: str
    n_residents: int
    mobility_rate: float
    mean_radius_km: float
    countries_visited: int


def stats_by_code(columns: Mapping[str, Sequence[Any]]) -> dict[str, CountryStats]:
    """The rows of country_stats.csv's columns (as residence.compute_country_stats returns them) by code."""
    return {row[0]: CountryStats(*row) for row in zip(*columns.values())}


def mobility_by_code(columns: Mapping[str, Sequence[Any]]) -> dict[str, MobilityProfile]:
    """The rows of mobility_profiles.csv's columns (as metrics.build_mobility_profiles returns them) by code."""
    return {row[0]: MobilityProfile(*row) for row in zip(*columns.values())}


def compute_country_stats(
    profiles: Mapping[str, UserProfile],
    census: Mapping[str, int],
    gdp_per_capita: Mapping[str, float] | None = None,
    min_penetration: float = 0.0005,
    min_residents: int = 10_000,
) -> dict[str, CountryStats]:
    """Penetration and inclusion flags for every country seen in any profile, one profile at a time."""
    residents: dict[str, int] = {}
    seen: set[str] = set()
    for profile in profiles.values():
        seen.update(profile.counts)
        residents[profile.residence] = residents.get(profile.residence, 0) + 1
    out: dict[str, CountryStats] = {}
    for code in sorted(seen):
        n_res = residents.get(code, 0)
        population = census.get(code)
        reasons: list[str] = []
        penetration = 0.0
        if population is None:
            reasons.append("no census")
        elif population <= 0:
            reasons.append(f"nonpositive population {population}")
        else:
            penetration = n_res / population
            if penetration < min_penetration:
                reasons.append(f"penetration {penetration:.6g} below {min_penetration:.6g}")
            if n_res < min_residents:
                reasons.append(f"residents {n_res} below {min_residents}")
        gdp = gdp_per_capita.get(code) if gdp_per_capita else None
        out[code] = CountryStats(code, n_res, population, penetration, not reasons, gdp, "; ".join(reasons))
    return out


def build_mobility_profiles(
    profiles: Mapping[str, UserProfile], radii: Mapping[str, float], gyration_over: str = "all"
) -> dict[str, MobilityProfile]:
    """One MobilityProfile per residence country, its radius sample summed in user id order."""
    by_country: dict[str, list[UserProfile]] = {}
    for profile in profiles.values():
        by_country.setdefault(profile.residence, []).append(profile)
    out: dict[str, MobilityProfile] = {}
    for code in sorted(by_country):
        residents = by_country[code]
        mobile = [p for p in residents if is_mobile(p)]
        pool = residents if gyration_over == "all" else mobile
        sample = [radii[p.user_id] for p in pool if p.user_id in radii]
        out[code] = MobilityProfile(
            code=code,
            n_residents=len(residents),
            mobility_rate=len(mobile) / len(residents),
            mean_radius_km=sum(sample) / len(sample) if sample else 0.0,
            countries_visited=destination_diversity(code, profiles),
        )
    return out


# ---------------------------------------------------------------------------
# Record-based flow network: one FlowEdge per edge and one BalanceEntry per
# country, keyed by code. The package's FlowNetwork columns must agree with
# these bit for bit; network_objects and the converters below give its
# results in this form.
# ---------------------------------------------------------------------------


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


@dataclass(slots=True)
class BalanceEntry:
    code: str
    inflow: float
    outflow: float
    balance: float  # inflow - outflow


def build_flow_network(profiles: Mapping[str, UserProfile]) -> FlowNetwork:
    """Edges (residence -> visited country) weighted by distinct users, one profile at a time."""
    weights: dict[tuple[str, str], int] = {}
    mobile: dict[str, int] = {}
    nodes: set[str] = set()
    for profile in profiles.values():
        nodes.update(profile.counts)
        home = profile.residence
        if is_mobile(profile):
            mobile[home] = mobile.get(home, 0) + 1
        for country in profile.counts:
            if country != home:
                weights[(home, country)] = weights.get((home, country), 0) + 1
    edges = {key: FlowEdge(origin=key[0], destination=key[1], raw_weight=w) for key, w in sorted(weights.items())}
    return FlowNetwork(nodes=sorted(nodes), edges=edges, mobile_residents={c: mobile.get(c, 0) for c in sorted(nodes)})


def network_objects(net: FlowColumns) -> FlowNetwork:
    """A columnar flow network as records, its edges in (origin, destination) order."""
    names, nodes = net.countries, [net.countries[c] for c in net.nodes.tolist()]
    est = [None] * len(net.edges) if net.est_weight is None else net.est_weight.tolist()
    edges = {}
    for (o, d), raw, weight in zip(net.edges.tolist(), net.raw_weight.tolist(), est):
        edges[(names[o], names[d])] = FlowEdge(names[o], names[d], raw, weight)
    return FlowNetwork(nodes, edges, dict(zip(nodes, net.mobile_residents.tolist())))


def balance_entries(net: FlowColumns, flows: tuple[np.ndarray, np.ndarray]) -> dict[str, BalanceEntry]:
    """network.inflow_outflow_balance's inflow and outflow arrays of a columnar network, by node code."""
    entries = zip(net.nodes.tolist(), *(flow.tolist() for flow in flows))
    return {net.countries[c]: BalanceEntry(net.countries[c], i, o, i - o) for c, i, o in entries}


def flow_edges(net: FlowColumns, rows: np.ndarray) -> list[FlowEdge]:
    """The edges of a columnar network's edge rows `rows` (as network.top_k_flows returns them), as records."""
    edges = list(network_objects(net).edges.values())
    return [edges[row] for row in rows.tolist()]


def normalize_and_filter(
    network: FlowNetwork,
    stats: Mapping[str, CountryStats],
    min_outgoing: int = 500,
    min_penetration: float = 0.0005,
) -> FlowNetwork:
    """Drop under-covered countries, then convert raw flows to people estimates, one record at a time."""
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


def build_profiles(events: list[GeoEvent]) -> dict[str, UserProfile]:
    """Aggregate labeled events into per-user profiles with residence assigned."""
    counts: dict[str, dict[str, int]] = {}
    first_seen: dict[str, dict[str, int]] = {}
    for event in events:
        if event.country is None:
            raise ValueError(f"event of user {event.user_id!r} has no country label")
        per_c = counts.setdefault(event.user_id, {})
        per_c[event.country] = per_c.get(event.country, 0) + 1
        per_f = first_seen.setdefault(event.user_id, {})
        if event.country not in per_f or event.timestamp < per_f[event.country]:
            per_f[event.country] = event.timestamp
    profiles: dict[str, UserProfile] = {}
    for user_id in sorted(counts):
        c = counts[user_id]
        f = first_seen[user_id]
        profiles[user_id] = UserProfile(
            user_id=user_id, counts=c, first_seen=f, residence=assign_residence(c, f), distinct_countries=len(c)
        )
    return profiles


def to_unit_vector(lat: float, lon: float) -> tuple[float, float, float]:
    """Unit vector on the sphere for a (lat, lon) in degrees."""
    phi = math.radians(lat)
    lam = math.radians(lon)
    c = math.cos(phi)
    return (c * math.cos(lam), c * math.sin(lam), math.sin(phi))


class DegenerateCenterError(ValueError):
    """Raised when a point set has no well-defined spherical center of mass
    (the 3-D mean vector cancels to ~zero, e.g. two antipodal points)."""


def from_unit_vector(x: float, y: float, z: float) -> tuple[float, float]:
    """(lat, lon) in degrees for a direction vector (need not be unit length)."""
    lat = math.degrees(math.atan2(z, math.hypot(x, y)))
    lon = math.degrees(math.atan2(y, x))
    return (lat, normalize_lon(lon))


def center_of_mass(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Spherical center of mass: the 3-D mean of unit position vectors,
    projected back onto the sphere; DegenerateCenterError on antipodal
    cancellation."""
    if not points:
        raise ValueError("center_of_mass needs at least one point")
    sx = sy = sz = 0.0
    for lat, lon in points:
        x, y, z = to_unit_vector(lat, lon)
        sx += x
        sy += y
        sz += z
    n = len(points)
    mx, my, mz = sx / n, sy / n, sz / n
    if math.sqrt(mx * mx + my * my + mz * mz) < 1e-12:
        raise DegenerateCenterError("mean position vector cancels to zero")
    return from_unit_vector(mx, my, mz)


def radius_of_gyration(points: list[tuple[float, float]]) -> float:
    """Root-mean-square great-circle distance from the points' center of mass."""
    if not points:
        raise ValueError("no points")
    if all(p == points[0] for p in points):
        return 0.0  # the center is the point itself; skip round-trip noise
    try:
        center = center_of_mass(points)
    except DegenerateCenterError:
        center = points[0]
    total = 0.0
    for p in points:
        d = haversine_km(p, center)
        total += d * d
    return (total / len(points)) ** 0.5


def user_gyration_radii(events: list[GeoEvent]) -> dict[str, float]:
    """Per-user radius of gyration over all of the user's event locations."""
    per_user: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        per_user.setdefault(event.user_id, []).append((event.lat, event.lon))
    return {uid: radius_of_gyration(pts) for uid, pts in sorted(per_user.items())}


def displacements(trajectory: Trajectory) -> list[float]:
    """Great-circle distances between consecutive events; empty for n <= 1."""
    evs = trajectory.events
    return [haversine_km((a.lat, a.lon), (b.lat, b.lon)) for a, b in zip(evs, evs[1:])]


@dataclass(slots=True)
class DailySeries:
    """Daily distinct-user counts for one country and direction."""

    code: str
    direction: str  # "outbound" (residents abroad) or "inbound" (visitors here)
    year: int
    values: list[int]  # one count per UTC calendar day of the year
    normalized: list[float]  # values scaled so max reads 100 (all-zero stays zero)


def _normalize(values: list[int]) -> list[float]:
    peak = max(values) if values else 0
    if peak == 0:
        return [0.0 for _ in values]
    return [100.0 * v / peak for v in values]


def daily_abroad_series(
    profiles: Mapping[str, UserProfile], events: list[GeoEvent], direction: str, year: int = 2012
) -> dict[str, DailySeries]:
    """Per-country daily counts of users active outside their residence."""
    if direction not in ("outbound", "inbound"):
        raise ValueError(f"direction must be 'outbound' or 'inbound', got {direction!r}")
    n_days = 366 if calendar.isleap(year) else 365
    start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    domain: set[str] = set()
    for profile in profiles.values():
        domain.update(profile.counts)
    daily: dict[str, list[set[str]]] = {c: [set() for _ in range(n_days)] for c in sorted(domain)}
    for event in events:
        if event.country is None:
            raise ValueError(f"event of user {event.user_id!r} has no country label")
        profile = profiles.get(event.user_id)
        if profile is None or event.country == profile.residence:
            continue
        day = (event.timestamp - start) // 86400
        if not 0 <= day < n_days:
            continue
        key = profile.residence if direction == "outbound" else event.country
        daily[key][day].add(event.user_id)
    out: dict[str, DailySeries] = {}
    for code, sets in daily.items():
        values = [len(s) for s in sets]
        out[code] = DailySeries(code=code, direction=direction, year=year, values=values, normalized=_normalize(values))
    return out


def sample_power_law(seed: int, exponent: float, xmin: float, xmax: float, n: int) -> list[float]:
    """Inverse-CDF samples of a power law truncated to [xmin, xmax].

    x = (xmin^(1-b) + u * (xmax^(1-b) - xmin^(1-b)))^(1/(1-b)) for uniform
    u in [0, 1): u = 0 gives xmin and u -> 1 approaches xmax.
    """
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    if not 0.0 < xmin < xmax:
        raise ValueError(f"need 0 < xmin < xmax, got {xmin}, {xmax}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    one_minus = 1.0 - exponent
    lo = xmin**one_minus
    hi = xmax**one_minus
    return ((lo + u * (hi - lo)) ** (1.0 / one_minus)).tolist()


def log_binned_density(samples) -> tuple[list[float], list[float]]:
    """Geometric-bin density of the positive samples, walking the sorted samples up the bin edges one by one."""
    xs = sorted(float(x) for x in samples if x > 0)
    if len(xs) < 2:
        raise ValueError(f"need >= 2 positive samples, got {len(xs)}")
    lo, hi = xs[0], xs[-1]
    if lo == hi:
        raise ValueError("all samples identical: no bins")
    edges = [_LOG_BIN_BASE**k for k in range(math.floor(math.log(lo, _LOG_BIN_BASE)),
                                              math.ceil(math.log(hi, _LOG_BIN_BASE)) + 1)]
    if edges[-1] <= hi:
        edges.append(edges[-1] * _LOG_BIN_BASE)
    counts = [0] * (len(edges) - 1)
    b = 0
    for x in xs:
        while x >= edges[b + 1]:
            b += 1
        counts[b] += 1
    bins = [(i, c) for i, c in enumerate(counts) if c]
    centers = [math.sqrt(edges[i] * edges[i + 1]) for i, _ in bins]
    return centers, [c / (len(xs) * (edges[i + 1] - edges[i])) for i, c in bins]


def mobility_rate(country: str, profiles: Mapping[str, UserProfile]) -> float:
    """Fraction of the country's residents that are mobile (the mobility_rate field of build_mobility_profiles)."""
    residents = [p for p in profiles.values() if p.residence == country]
    if not residents:
        raise ValueError(f"no residents in {country!r}")
    return sum(1 for p in residents if is_mobile(p)) / len(residents)


# ---------------------------------------------------------------------------
# Scalar synthetic-world generator: one user, one point and one hop at a time.
# synth.generate_events must draw the same events and truth, bit for bit.
# ---------------------------------------------------------------------------


def _jitter(rng: np.random.Generator, capital: tuple[float, float], n: int, sigma_km: float = 15.0, cap_km: float = 50.0) -> list[tuple[float, float]]:
    """n points Gaussian-scattered around a capital, clamped to cap_km."""
    lat0, lon0 = capital
    offsets = rng.normal(0.0, sigma_km, size=(n, 2))  # east, north in km
    points: list[tuple[float, float]] = []
    coslat = math.cos(math.radians(lat0))
    for east, north in offsets:
        east, north = float(east), float(north)
        norm = math.hypot(east, north)
        if norm > cap_km:
            east *= cap_km / norm
            north *= cap_km / norm
        lat = lat0 + north / KM_PER_DEG_LAT
        lon = lon0 + east / (KM_PER_DEG_LON_EQ * coslat)
        points.append((lat, lon))
    return points


def _schedule(rng: np.random.Generator, hops_km: list[float], year_start: int, year_seconds: int) -> list[int]:
    """Strictly increasing in-year timestamps with speed-safe minimum gaps.

    Works backward from a reserve: at every step the remaining minimum gaps
    must still fit before year end, so random slack never pushes the tail
    out of the year.
    """
    min_gaps = [SECONDS_PER_HOUR + SECONDS_PER_KM * math.ceil(d) for d in hops_km]
    suffix = [0] * (len(min_gaps) + 1)
    for k in range(len(min_gaps) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + min_gaps[k]
    latest_start = year_seconds - suffix[0] - 1
    if latest_start < 0:
        raise ValueError("events do not fit inside the year at safe spacing")
    t = year_start + int(rng.integers(0, latest_start + 1))
    times = [t]
    year_end = year_start + year_seconds - 1
    extras = rng.integers(0, MAX_EXTRA_GAP + 1, size=len(min_gaps))
    for k, gap in enumerate(min_gaps):
        t = min(t + gap + int(extras[k]), year_end - suffix[k + 1])
        times.append(t)
    return times


def generate_events(
    world: SynthWorld,
    users_per_country: int,
    events_per_user: int,
    trip_rate: float,
    bot_fraction: float = 0.05,
    year: int = 2012,
) -> tuple[list[GeoEvent], SynthTruth]:
    """synth.generate_events, drawing each user's trip, points and schedule with scalar steps."""
    year_start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    year_seconds = (366 if calendar.isleap(year) else 365) * 86400
    flows = expected_flows(world) if len(world.countries) > 1 else {}
    codes = sorted(c.code for c in world.countries)
    by_code = world.by_code()
    row_mass = {c: math.fsum(flows.get((c, d), 0.0) for d in codes if d != c) for c in codes}
    max_row = max(row_mass.values()) if row_mass else 0.0
    max_foreign = max(0, min(_MAX_FOREIGN_EVENTS, (events_per_user - 1) // 2))
    n_bots = int(bot_fraction * users_per_country)
    planted_mobility: dict[str, float] = {}
    for c in codes:
        p = trip_rate * row_mass[c] / max_row if max_row > 0.0 else 0.0
        planted_mobility[c] = p if max_foreign >= 1 else 0.0

    events: list[GeoEvent] = []
    truth = SynthTruth(
        residences={},
        bots=[],
        sources={},
        planted_mobility=planted_mobility,
        realized_mobile={c: 0 for c in codes},
        realized_edges={},
        n_users={c: users_per_country for c in codes},
        n_humans={c: users_per_country - n_bots for c in codes},
    )
    user_index = 0
    for code in codes:
        country = by_code[code]
        dests = [d for d in codes if d != code]
        probs: list[float] = []
        if dests and row_mass[code] > 0.0:
            probs = [flows[(code, d)] / row_mass[code] for d in dests]
        for k in range(users_per_country):
            rng = np.random.default_rng([world.seed, user_index])
            user_id = f"u{user_index:06d}"
            user_index += 1
            is_bot = k >= users_per_country - n_bots
            if is_bot:
                source = f"bot_{code}_{k:04d}"
                truth.bots.append(user_id)
            else:
                source = HUMAN_SOURCES[_SOURCE_PATTERN[k % len(_SOURCE_PATTERN)]]
            truth.residences[user_id] = code
            truth.sources[user_id] = source

            destination: str | None = None
            n_foreign = 0
            if not is_bot and probs and planted_mobility[code] > 0.0:
                if rng.random() < planted_mobility[code]:
                    destination = dests[int(rng.choice(len(dests), p=probs))]
                    n_foreign = int(rng.integers(1, max_foreign + 1))
            if destination is not None:
                truth.realized_mobile[code] += 1
                edge = (code, destination)
                truth.realized_edges[edge] = truth.realized_edges.get(edge, 0) + 1

            n_home = events_per_user - n_foreign
            trip_after = int(rng.integers(1, n_home + 1)) if n_foreign else n_home
            home_points = _jitter(rng, country.capital, n_home)
            if n_foreign:
                away_points = _jitter(rng, by_code[destination].capital, n_foreign)
                points = home_points[:trip_after] + away_points + home_points[trip_after:]
            else:
                points = home_points
            hops = [haversine_km(points[i], points[i + 1]) for i in range(len(points) - 1)]
            times = _schedule(rng, hops, year_start, year_seconds)
            for (lat, lon), ts in zip(points, times):
                events.append(GeoEvent(user_id, ts, lat, lon, source))
    truth.realized_edges = dict(sorted(truth.realized_edges.items()))
    return events, truth


def _csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    return "".join(",".join(tables.fmt(cell) for cell in row) + "\n" for row in [header, *rows])


def oracle_artifacts(config: Mapping[str, Any]) -> dict[str, str]:
    """The event-level artifacts of `geoflow run`, rebuilt with the object pipeline above.

    Covers ingest, clean, the user profiles, the daily series, the
    displacements and the gyration radii; keys are artifact file names.
    """
    paths, settings = config["paths"], config["clean"]
    with open(paths["events"], "rb") as fh:
        report = parse_events(fh)
    index = BoundaryIndex(load_boundaries(paths["boundaries"])) if paths["boundaries"] else None
    labeled, _ = label_events(report.events, index)
    out = {"events_labeled.csv": _event_file(labeled)}
    trajectories = build_trajectories(labeled)
    speed_kept: list[GeoEvent] = []
    for user_id in sorted(trajectories):
        filtered, _ = speed_filter(trajectories[user_id], settings["max_speed_kmh"])
        speed_kept.extend(filtered.events)
    retained, cleaned, stats = source_popularity_filter(speed_kept, settings["coverage"], settings["weight_mode"])
    out["events_clean.csv"] = _event_file(cleaned)
    out["cleaning_report.csv"] = _csv(
        ["country", "source", "mass", "retained"],
        [[c, s, m, s in retained.get(c, set())] for c in sorted(stats.rankings) for s, m in stats.rankings[c]],
    )
    profiles = build_profiles(cleaned)
    out["profiles.csv"] = _csv(
        ["user_id", "residence", "total_events", "distinct_countries"],
        [[p.user_id, p.residence, p.total_events, p.distinct_countries] for _, p in sorted(profiles.items())],
    )
    for direction in ("outbound", "inbound"):
        series = daily_abroad_series(profiles, cleaned, direction, year=config["year"])
        out[f"daily_{direction}.csv"] = _csv(
            ["code", "day", "count", "normalized"],
            [
                [c, day, v, norm]
                for c in sorted(series)
                for day, (v, norm) in enumerate(zip(series[c].values, series[c].normalized))
            ],
        )
    traj_clean = build_trajectories(cleaned)
    out["displacements.csv"] = _csv(
        ["user_id", "km"], [[u, d] for u in sorted(traj_clean) for d in displacements(traj_clean[u])]
    )
    radii = user_gyration_radii(cleaned)
    out["gyration.csv"] = _csv(["user_id", "km"], [[u, radii[u]] for u in sorted(radii)])
    return out


def _event_file(events: Sequence[GeoEvent]) -> str:
    rows = [f"{e.user_id},{e.timestamp},{e.lat!r},{e.lon!r},{e.source},{e.country or ''}\n" for e in events]
    return ",".join(tables.EVENT_HEADER) + "\n" + "".join(rows)


# A few fixed points, antipodal pairs and seam neighbours among them, plus
# any point: the columnar layers must agree with the oracles above on all.
FIXED_POINTS = [
    (0.0, 0.0), (0.0, 1.0), (0.0, 10.0), (0.0, 180.0), (45.0, 90.0), (-45.0, -90.0),
    (10.0, 179.9), (10.0, -179.9), (90.0, 0.0), (-90.0, 0.0),
]


def event_lists(max_size: int = 40):
    """Hypothesis strategy: labeled events of a few users, sources and countries, close in time."""
    from hypothesis import strategies as st

    point = st.sampled_from(FIXED_POINTS) | st.tuples(st.floats(-90.0, 90.0), st.floats(-179.9, 180.0))
    return st.lists(
        st.builds(
            lambda user, ts, p, source, country: ev(user, Y2012 + ts, p[0], p[1], source, country),
            st.sampled_from("abcd"),
            st.integers(-90_000, 200_000),
            point,
            st.sampled_from(["s1", "s2", "s3"]),
            st.sampled_from(["AA", "BB", "CC"]),
        ),
        max_size=max_size,
    )
