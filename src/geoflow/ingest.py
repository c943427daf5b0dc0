"""Event-stream ingestion: line parsing, country labeling, trajectory grouping.

The event line format is UTF-8 CSV `user_id,timestamp,lat,lon,source[,country]`
with an optional header (detected by a non-numeric second field). Country
labeling is point-in-polygon against a supplied boundary set; events that
arrive pre-labeled keep their label and skip the geometry entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .sphere import normalize_lon

# One linear ring: closed sequence of (lon, lat) vertices, first == last.
Ring = list[tuple[float, float]]
# One polygon: exterior ring followed by zero or more hole rings.
Polygon = list[Ring]


@dataclass(slots=True)
class GeoEvent:
    """A single geo-located message."""

    user_id: str
    timestamp: int  # UTC seconds since epoch
    lat: float  # degrees in [-90, 90]
    lon: float  # degrees in (-180, 180]
    source: str  # client application name, free string
    country: str | None = None  # ISO 3166-1 alpha-2 when known


@dataclass(slots=True)
class Trajectory:
    """All events of one user, sorted by (timestamp, input order)."""

    user_id: str
    events: list[GeoEvent]


@dataclass(slots=True)
class ParseReport:
    events: list[GeoEvent]
    errors: list[tuple[int, str]]  # (1-based line number, reason)
    n_lines: int = 0
    header_skipped: bool = False

    @property
    def n_malformed(self) -> int:
        return len(self.errors)


@dataclass(frozen=True)
class EventFormat:
    """Descriptor for the line-delimited event format."""

    delimiter: str = ","


def _parse_line(parts: list[str]) -> GeoEvent:
    """Build a GeoEvent from split fields; raises ValueError on any violation."""
    if len(parts) < 5 or len(parts) > 6:
        raise ValueError(f"expected 5 or 6 fields, got {len(parts)}")
    user_id = parts[0].strip()
    if not user_id:
        raise ValueError("empty user_id")
    try:
        timestamp = int(parts[1].strip())
    except ValueError:
        raise ValueError(f"timestamp not an integer: {parts[1]!r}") from None
    if timestamp < 0:
        raise ValueError(f"negative timestamp: {timestamp}")
    try:
        lat = float(parts[2])
        lon = float(parts[3])
    except ValueError:
        raise ValueError(f"non-numeric coordinates: {parts[2]!r},{parts[3]!r}") from None
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat}")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude out of range: {lon}")
    source = parts[4].strip()
    country: str | None = None
    if len(parts) == 6:
        raw = parts[5].strip()
        if raw:
            if len(raw) != 2 or not raw.isalpha():
                raise ValueError(f"bad country code: {raw!r}")
            country = raw.upper()
    return GeoEvent(user_id, timestamp, lat, normalize_lon(lon), source, country)


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) < 2:
        return False
    try:
        int(parts[1].strip())
    except ValueError:
        return True
    return False


def parse_events(stream: Iterable[str] | Iterable[bytes], fmt: EventFormat = EventFormat()) -> ParseReport:
    """Parse a line-delimited event stream.

    Every well-formed line yields exactly one GeoEvent. Malformed lines are
    recorded with their 1-based line number and skipped, never silently
    dropped: len(events) + len(errors) + header == total lines. Lines given
    as bytes are decoded as UTF-8 one by one, so an undecodable line is one
    malformed line.
    """
    report = ParseReport(events=[], errors=[])
    for lineno, line in enumerate(stream, start=1):
        report.n_lines = lineno
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                report.errors.append((lineno, "invalid UTF-8"))
                continue
        line = line.rstrip("\r\n")
        if not line.strip():
            report.errors.append((lineno, "blank line"))
            continue
        parts = line.split(fmt.delimiter)
        if lineno == 1 and _looks_like_header(parts):
            report.header_skipped = True
            continue
        try:
            report.events.append(_parse_line(parts))
        except ValueError as exc:
            report.errors.append((lineno, str(exc)))
    return report


# ---------------------------------------------------------------------------
# Country boundaries and point-in-polygon lookup
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CountryBoundary:
    """Territory outline: one country code and its polygons (with holes)."""

    code: str
    polygons: list[Polygon]


def _validate_ring(ring: Ring, code: str) -> None:
    if len(ring) < 4:
        raise ValueError(f"{code}: ring has {len(ring)} vertices, need >= 4")
    if ring[0] != ring[-1]:
        raise ValueError(f"{code}: ring not closed (first != last vertex)")
    for (lon1, _), (lon2, _) in zip(ring, ring[1:]):
        if not -180.0 <= lon1 <= 180.0:
            raise ValueError(f"{code}: longitude {lon1} out of range")
        if abs(lon2 - lon1) > 180.0:
            # Rings that cross the antimeridian must be pre-split by the
            # data supplier; ray casting here is strictly planar.
            raise ValueError(f"{code}: ring jumps {abs(lon2 - lon1):.3f} deg in lon; split at the antimeridian")
    for _, lat in ring:
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"{code}: latitude {lat} out of range")


def _point_on_segment(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """Exact test: (x, y) lies on the closed segment (x1,y1)-(x2,y2)."""
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    if cross != 0.0:
        return False
    return min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2)


def _ray_cast(x: float, y: float, rings: list[Ring]) -> bool:
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


def _polygon_contains(x: float, y: float, rings: list[Ring]) -> bool:
    """Closed containment: interior by even-odd rule, or exactly on any edge."""
    for ring in rings:
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if _point_on_segment(x, y, x1, y1, x2, y2):
                return True
    return _ray_cast(x, y, rings)


class BoundaryIndex:
    """Bounding-box prefiltered point-in-polygon lookup over a boundary set.

    A point exactly on a shared border belongs to the lexicographically
    smallest country code among those whose closed boundary contains it,
    which keeps lookups total and deterministic.
    """

    def __init__(self, boundaries: list[CountryBoundary]):
        seen: set[str] = set()
        self._entries: list[tuple[str, Polygon, tuple[float, float, float, float]]] = []
        for boundary in sorted(boundaries, key=lambda b: b.code):
            if boundary.code in seen:
                raise ValueError(f"duplicate country code {boundary.code!r}")
            seen.add(boundary.code)
            for polygon in boundary.polygons:
                for ring in polygon:
                    _validate_ring(ring, boundary.code)
                xs = [v[0] for ring in polygon for v in ring]
                ys = [v[1] for ring in polygon for v in ring]
                bbox = (min(xs), min(ys), max(xs), max(ys))
                self._entries.append((boundary.code, polygon, bbox))

    def locate(self, lon: float, lat: float) -> str | None:
        """Country code containing (lon, lat), or None (open ocean)."""
        hit: str | None = None
        for code, polygon, (x0, y0, x1, y1) in self._entries:
            if hit is not None and code >= hit:
                continue  # entries are code-sorted; min code wins
            if not (x0 <= lon <= x1 and y0 <= lat <= y1):
                continue
            if _polygon_contains(lon, lat, polygon):
                hit = code
        return hit


def label_events(events: list[GeoEvent], index: BoundaryIndex | None) -> tuple[list[GeoEvent], int]:
    """Attach country labels in place; returns (labeled events, dropped count).

    Events that end up with no country (open ocean, or unlabeled input with
    no boundary set) are dropped and counted — downstream stages require a
    country on every event.
    """
    labeled: list[GeoEvent] = []
    dropped = 0
    for event in events:
        if event.country is None and index is not None:
            event.country = index.locate(event.lon, event.lat)
        if event.country is None:
            dropped += 1
        else:
            labeled.append(event)
    return labeled, dropped


def load_boundaries(path: str) -> list[CountryBoundary]:
    """Read a GeoJSON FeatureCollection of country outlines.

    Each feature needs a `code` property (ISO alpha-2) and a Polygon or
    MultiPolygon geometry. Rings crossing the antimeridian are rejected;
    suppliers must pre-split them.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("type") != "FeatureCollection":
        raise ValueError("boundary file must be a GeoJSON FeatureCollection")
    out: list[CountryBoundary] = []
    for feature in doc.get("features", []):
        props = feature.get("properties") or {}
        code = props.get("code")
        if not code:
            raise ValueError("boundary feature missing 'code' property")
        geom = feature.get("geometry") or {}
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        if gtype == "Polygon":
            multi = [coords]
        elif gtype == "MultiPolygon":
            multi = coords
        else:
            raise ValueError(f"{code}: unsupported geometry type {gtype!r}")
        polygons: list[Polygon] = []
        for poly in multi:
            polygons.append([[(float(v[0]), float(v[1])) for v in ring] for ring in poly])
        out.append(CountryBoundary(code=str(code).upper(), polygons=polygons))
    return out


def build_trajectories(events: list[GeoEvent]) -> dict[str, Trajectory]:
    """Group events into per-user trajectories sorted by (timestamp, input order).

    Every event lands in exactly one trajectory; the sort is stable so equal
    timestamps keep their input order.
    """
    grouped: dict[str, list[GeoEvent]] = {}
    for event in events:
        grouped.setdefault(event.user_id, []).append(event)
    out: dict[str, Trajectory] = {}
    for user_id in sorted(grouped):
        evs = grouped[user_id]
        evs.sort(key=lambda e: e.timestamp)  # stable: input order preserved on ties
        out[user_id] = Trajectory(user_id=user_id, events=evs)
    return out
