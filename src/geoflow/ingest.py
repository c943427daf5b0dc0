"""Event-stream ingestion: line parsing, country labeling, trajectory grouping.

The event line format is UTF-8 CSV `user_id,timestamp,lat,lon,source[,country]`
with an optional header (detected by a non-numeric second field). Country
labeling is point-in-polygon against a supplied boundary set; events that
arrive pre-labeled keep their label and skip the geometry entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


# Malformed lines a ParseReport keeps with their reason; later ones are
# only counted, so a hostile file cannot fill memory with error records.
MAX_ERRORS = 10


@dataclass(slots=True)
class ParseReport:
    events: list[GeoEvent]
    errors: list[tuple[int, str]]  # the first MAX_ERRORS (1-based line number, reason)
    n_lines: int = 0
    header_skipped: bool = False
    n_malformed: int = 0  # every malformed line, kept in errors or not


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


def parse_events(stream: Iterable[str] | Iterable[bytes]) -> ParseReport:
    """Parse a line-delimited event stream.

    Every well-formed line yields exactly one GeoEvent. Malformed lines are
    counted and skipped, never silently dropped, and the first MAX_ERRORS
    keep their 1-based line number and reason:
    len(events) + n_malformed + header == total lines. Lines given
    as bytes are decoded as UTF-8 one by one, so an undecodable line is one
    malformed line.
    """
    report = ParseReport(events=[], errors=[])
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
            report.events.append(_parse_line(parts))
        except ValueError as exc:
            report.n_malformed += 1
            if len(report.errors) < MAX_ERRORS:
                report.errors.append((lineno, "invalid UTF-8" if isinstance(exc, UnicodeDecodeError) else str(exc)))
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


# Points x edges pairs per block of the labeling kernel: bounds its
# temporaries to a few MiB whatever the event count or outline detail.
_BLOCK_PAIRS = 1 << 16


def _contains(edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Closed even-odd containment of (m, 2) lon/lat points in a polygon's (n, 4) edge rows.

    Each float expression keeps the operand order of the scalar
    crossing-number test (Haines, Graphics Gems IV, 1994), and numpy
    evaluates it elementwise without fused multiply-add, so every decision
    is the scalar one. (x2, y2) is the later vertex of each edge.
    """
    x1, y1, x2, y2 = edges.T
    x, y = points[:, :1], points[:, 1:]
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    on_edge = (cross == 0.0) & (np.minimum(x1, x2) <= x) & (x <= np.maximum(x1, x2))
    on_edge &= (np.minimum(y1, y2) <= y) & (y <= np.maximum(y1, y2))
    with np.errstate(divide="ignore", invalid="ignore"):  # y1 == y2 only where the straddle test fails
        crosses = ((y2 > y) != (y1 > y)) & (x < (x1 - x2) * (y - y2) / (y1 - y2) + x2)
    return on_edge.any(axis=1) | (np.count_nonzero(crosses, axis=1) % 2 == 1)


class BoundaryIndex:
    """Bounding-box prefiltered point-in-polygon lookup over a boundary set.

    A point exactly on a shared border belongs to the lexicographically
    smallest country code among those whose closed boundary contains it,
    which keeps lookups total and deterministic.
    """

    def __init__(self, boundaries: list[CountryBoundary]):
        self._codes: list[str] = []
        # Per polygon, in code order: code position, bbox corners and the
        # (n, 4) float64 edge rows x1, y1, x2, y2 of all its rings.
        self._entries: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for boundary in sorted(boundaries, key=lambda b: b.code):
            if boundary.code in self._codes:
                raise ValueError(f"duplicate country code {boundary.code!r}")
            self._codes.append(boundary.code)
            for polygon in boundary.polygons:
                for ring in polygon:
                    _validate_ring(ring, boundary.code)
                edges = np.array([(*a, *b) for ring in polygon for a, b in zip(ring, ring[1:])], dtype=np.float64)
                vertices = edges.reshape(-1, 2)
                self._entries.append((len(self._codes) - 1, vertices.min(axis=0), vertices.max(axis=0), edges))

    def locate_many(self, lons: Sequence[float], lats: Sequence[float]) -> list[str | None]:
        """Country code containing each (lon, lat) point, or None (open ocean).

        Each polygon, in code order, tests the points still unlabeled inside
        its bounding box, in blocks of about _BLOCK_PAIRS point-edge pairs.
        """
        points = np.column_stack((lons, lats)).astype(np.float64, copy=False)
        label = np.full(len(points), -1)
        for k, lo, hi, edges in self._entries:
            todo = np.flatnonzero((label < 0) & np.all((lo <= points) & (points <= hi), axis=1))
            step = max(1, _BLOCK_PAIRS // len(edges))
            for start in range(0, len(todo), step):
                block = todo[start : start + step]
                label[block[_contains(edges, points[block])]] = k
        return [self._codes[k] if k >= 0 else None for k in label.tolist()]

    def locate(self, lon: float, lat: float) -> str | None:
        """Country code containing (lon, lat), or None (open ocean)."""
        return self.locate_many([lon], [lat])[0]


def label_events(events: list[GeoEvent], index: BoundaryIndex | None) -> tuple[list[GeoEvent], int]:
    """Attach country labels in place; returns (labeled events, dropped count).

    Events that end up with no country (open ocean, or unlabeled input with
    no boundary set) are dropped and counted — downstream stages require a
    country on every event.
    """
    if index is not None:
        todo = [event for event in events if event.country is None]
        for event, code in zip(todo, index.locate_many([e.lon for e in todo], [e.lat for e in todo])):
            event.country = code
    labeled = [event for event in events if event.country is not None]
    return labeled, len(events) - len(labeled)


def load_boundaries(path: str) -> list[CountryBoundary]:
    """Read a GeoJSON FeatureCollection of country outlines.

    Each feature needs a `code` property (ISO alpha-2) and a Polygon or
    MultiPolygon geometry. Rings crossing the antimeridian are rejected;
    suppliers must pre-split them.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise ValueError("boundary file must be a GeoJSON FeatureCollection with a list of features")
    out: list[CountryBoundary] = []
    for number, feature in enumerate(features):
        try:
            props = feature.get("properties") or {}
            code = props.get("code")
            if not code:
                raise ValueError("missing 'code' property")
            geom = feature.get("geometry") or {}
            gtype = geom.get("type")
            coords = geom.get("coordinates", [])
            if gtype == "Polygon":
                multi = [coords]
            elif gtype == "MultiPolygon":
                multi = coords
            else:
                raise ValueError(f"{code}: unsupported geometry type {gtype!r}")
            polygons = [[[(float(v[0]), float(v[1])) for v in ring] for ring in poly] for poly in multi]
            if not all(polygons):
                raise ValueError(f"{code}: polygon has no rings")
        except (AttributeError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"boundary feature {number}: {exc}") from exc
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
