"""Event-stream ingestion: line parsing, country labeling, trajectory grouping.

The event line format is UTF-8 CSV `user_id,timestamp,lat,lon,source[,country]`
with an optional header (detected by a non-numeric second field). Country
labeling is point-in-polygon against a supplied boundary set; events that
arrive pre-labeled keep their label and skip the geometry entirely.

An event file is parsed a block of BLOCK_ROWS lines at a time. A block that
is printable ASCII with the same 5 or 6 fields on every line, and whose
fields all pass the line checks, is read a column at a time with the same
int and float builtins; any other block goes whole to the line loop, so
both give the same table, errors and counts. Both write straight into
columns as long as the file has lines, with first-seen codes that are
renumbered into the sorted vocabularies at the end, a block at a time.
"""

from __future__ import annotations

import io
import json
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

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


@dataclass(slots=True, eq=False)
class EventTable:
    """Events as columns, one row per event. `user`, `source` and `country` are positions in the
    sorted vocabularies `users`, `sources` and `countries`, which may hold names no row uses. Each of
    these code columns has the narrowest type _code_dtype gives its vocabulary: widen it to int64
    before any arithmetic on a code."""

    users: list[str]
    sources: list[str]
    countries: list[str]
    user: np.ndarray  # positions in users
    timestamp: np.ndarray  # int64 UTC seconds since epoch
    lat: np.ndarray  # float64 degrees in [-90, 90]
    lon: np.ndarray  # float64 degrees in (-180, 180]
    source: np.ndarray  # positions in sources
    country: np.ndarray  # positions in countries, -1 when unlabeled

    def __len__(self) -> int:
        return len(self.timestamp)

    def take(self, rows: np.ndarray) -> EventTable:
        """The rows an index array or boolean mask selects, over the same vocabularies."""
        columns = (self.user, self.timestamp, self.lat, self.lon, self.source, self.country)
        return EventTable(self.users, self.sources, self.countries, *(column[rows] for column in columns))

    def select(self, rows: np.ndarray) -> None:
        """Keep only the rows `take` would return, in place: a boolean mask compacts each column where it is
        (compress), and an index array copies one column at a time, so the rows are never held twice. For a
        table whose columns no other table or array shares."""
        for name in ("user", "timestamp", "lat", "lon", "source", "country"):
            column = getattr(self, name)
            setattr(self, name, compress(column, rows) if rows.dtype == bool else column[rows])


def compress(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """values[mask], moved to the front of `values` itself a block of BLOCK_ROWS rows at a time; returns their view."""
    kept = 0
    for start in range(0, len(values), BLOCK_ROWS):
        block = values[start : start + BLOCK_ROWS][mask[start : start + BLOCK_ROWS]]
        values[kept : kept + len(block)] = block
        kept += len(block)
    return values[:kept]


# Rows a pass over a whole table handles at a time (formatting, copying and scanning event files, pairs of
# consecutive events): bounds every transient string, slice, mapped page and array whatever the event count.
BLOCK_ROWS = 4096


def _code_dtype(n_names: int) -> type[np.signedinteger]:
    """The narrowest of int16 and int32 that holds the codes -1 to n_names - 1."""
    return np.int16 if n_names < 2**15 else np.int32


def runs(column: np.ndarray) -> np.ndarray:
    """Offsets of the runs of equal values of a column: run k is rows offsets[k]:offsets[k + 1]."""
    return np.flatnonzero(np.r_[True, column[1:] != column[:-1], True]) if len(column) else np.zeros(1, dtype=np.int64)


def user_blocks(user: np.ndarray, rows: int) -> list[int]:
    """Cuts of the user codes of rows in trajectory order (ascending) into blocks of whole users: block k is rows
    cuts[k]:cuts[k + 1], from the first row of the user at row k * rows, so about `rows` rows or one user's."""
    starts = np.searchsorted(user, user[::rows])  # needles of the column's own dtype: no cast of the whole column
    return [*dict.fromkeys(starts.tolist()), len(user)]


# Malformed lines a ParseReport keeps with their reason; later ones are
# only counted, so a hostile file cannot fill memory with error records.
MAX_ERRORS = 10


@dataclass(slots=True)
class ParseReport:
    events: EventTable
    errors: list[tuple[int, str]]  # the first MAX_ERRORS (1-based line number, reason)
    n_lines: int = 0
    header_skipped: bool = False
    n_malformed: int = 0  # every malformed line, kept in errors or not


def _parse_line(parts: list[str]) -> tuple[str, int, float, float, str, str | None]:
    """GeoEvent fields from split fields; raises ValueError on any violation."""
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
    if timestamp >= 2**63:
        raise ValueError(f"timestamp beyond int64: {timestamp}")
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
    return user_id, timestamp, lat, normalize_lon(lon), source, country


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) < 2:
        return False
    try:
        int(parts[1].strip())
    except ValueError:
        return True
    return False


def _coded(column: list[str], distinct: dict[str, Any], code: Callable[[str], int]) -> np.ndarray:
    """`column` as C-int codes: `distinct` holds each of its fields once, in first-seen order, and `code` is called
    on each in that order."""
    for field in distinct:
        distinct[field] = code(field)
    return np.fromiter(map(distinct.__getitem__, column), np.intc, len(column))


def file_reads(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of a binary file, BLOCK_ROWS << 4 bytes at a time."""
    return iter(partial(fh.read, BLOCK_ROWS << 4), b"")


def _blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of a binary file, BLOCK_ROWS lines at a time: each block ends at an LF, and the last one holds what
    is left, LF-ended or not. Each read is searched once and each of its bytes copied into one block, so a long
    line costs linear time; beyond the block it yields, it holds one read."""
    pending: list[bytes] = []  # the reads since the last block's end
    lines = 0  # the LFs in pending
    for data in file_reads(fh):
        lf = np.frombuffer(data, dtype=np.uint8) == 10
        found = int(np.count_nonzero(lf))
        if lines + found >= BLOCK_ROWS:
            ends = np.flatnonzero(lf)[BLOCK_ROWS - lines - 1 :: BLOCK_ROWS] + 1
            start = 0
            for end in ends.tolist():
                yield b"".join([*pending, data[start:end]])
                pending, start = [], end
            data = data[start:]
        lines = (lines + found) % BLOCK_ROWS
        pending.append(data)
    if rest := b"".join(pending):
        yield rest


def lines_left(fh: BinaryIO) -> int:
    """The most rows the rest of a binary file can hold, its LFs plus one, and the file left where it was; 0 when it
    cannot seek."""
    if not fh.seekable():
        return 0
    start = fh.tell()
    lines = sum(int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == 10)) for data in file_reads(fh)) + 1
    fh.seek(start)
    return lines


class _Columns:
    """What parse_events has read so far: first-seen vocabularies, columns and counts. The line loop and the block
    path append to the same ones, so any split of the lines between the two builds the same report."""

    def __init__(self) -> None:
        self.users: dict[str, int] = {}  # name -> first-seen code; likewise sources and countries
        self.sources: dict[str, int] = {}
        self.countries: dict[str, int] = {}
        # Rows 0 to n_rows - 1 of user, timestamp, lat, lon, source and country; the rest is room to grow. The code
        # columns hold first-seen codes, each in the _code_dtype of its vocabulary so far.
        dtypes = (np.int16, np.int64, np.float64, np.float64, np.int16, np.int16)
        self.columns = [np.empty(0, dtype) for dtype in dtypes]
        self.n_rows = 0
        self.errors: list[tuple[int, str]] = []
        self.n_lines = self.n_malformed = 0
        self.header_skipped = False

    def reserve(self, rows: int) -> None:
        """Room for `rows` more rows, or half the rows so far if that is more: the columns are copied, and a page of
        the new room counts towards the resident size only once a row is written to it."""
        if self.n_rows + rows > len(self.columns[1]):
            size = max(self.n_rows + rows, self.n_rows * 3 // 2)
            for k, column in enumerate(self.columns):
                self.columns[k] = np.empty(size, column.dtype)
                self.columns[k][: self.n_rows] = column[: self.n_rows]

    def _append(self, *values: Any) -> None:
        """Rows after the last: the user, timestamp, lat, lon, source and country values as arrays. A code column
        widens, once, when its vocabulary grows past what int16 holds."""
        self.reserve(len(values[1]))
        for k, vocabulary in ((0, self.users), (4, self.sources), (5, self.countries)):
            if (dtype := _code_dtype(len(vocabulary))) != self.columns[k].dtype:
                wide = np.empty(len(self.columns[k]), dtype)
                wide[: self.n_rows] = self.columns[k][: self.n_rows]
                self.columns[k] = wide
        for column, rows in zip(self.columns, values):
            column[self.n_rows : self.n_rows + len(rows)] = rows
        self.n_rows += len(values[1])

    def lines(self, lines: Iterable[str] | Iterable[bytes]) -> None:
        """The line loop: each line decoded, split and checked on its own; a malformed one is counted, and the
        first MAX_ERRORS keep their line number and reason."""
        users, sources, countries, errors = self.users, self.sources, self.countries, self.errors
        # First-seen codes are C ints (int32): more than 2**31 names of one kind would take more lines than that.
        user, timestamp, lat, lon, source, country = columns = tuple(array(kind) for kind in "iqddii")
        lineno = self.n_lines
        for lineno, line in enumerate(lines, start=lineno + 1):
            try:
                line = (line.decode("utf-8") if isinstance(line, bytes) else line).rstrip("\r\n")
                if not line.strip():
                    raise ValueError("blank line")
                parts = line.split(",")
                if lineno == 1 and _looks_like_header(parts):
                    self.header_skipped = True
                    continue
                user_id, ts, lat_deg, lon_deg, source_name, code = _parse_line(parts)
            except ValueError as exc:
                self.n_malformed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append((lineno, "invalid UTF-8" if isinstance(exc, UnicodeDecodeError) else str(exc)))
                continue
            user.append(users.setdefault(user_id, len(users)))
            timestamp.append(ts)
            lat.append(lat_deg)
            lon.append(lon_deg)
            source.append(sources.setdefault(source_name, len(sources)))
            country.append(-1 if code is None else countries.setdefault(code, len(countries)))
        self.n_lines = lineno
        self._append(*columns)

    def block(self, data: bytes) -> None:
        """Whole lines of a binary file, the last maybe without its LF: a column at a time if the block path takes
        them, else through the line loop."""
        if not self._block_path(data):
            lines = data.split(b"\n")
            self.lines(lines if lines[-1] else lines[:-1])

    def _block_path(self, data: bytes) -> bool:
        """Append the rows of whole lines a column at a time if every guard holds; else change nothing and return
        False. The guards, cheapest first, hold only where the line loop would accept every line, and the same
        int and float builtins read the same text there, so the columns are the line loop's bit for bit."""
        if not data.endswith(b"\n"):
            data += b"\n"  # the file's last line, which the line loop reads the same without its LF
        byte = np.frombuffer(data, dtype=np.uint8)
        lf = byte == 10
        ends = np.flatnonzero(lf)
        # Printable ASCII and LF only: decoding cannot fail, no CR ends a field, and strip() removes only spaces.
        if byte.max() > 126 or np.count_nonzero(byte < 32) != len(ends):
            return False
        # Every line has `width` fields, 5 on all or 6 on all (so none is blank): each width-th comma or LF is an LF.
        separators = np.flatnonzero(lf | (byte == 44))
        width = len(separators) // len(ends)
        if width not in (5, 6) or len(separators) != width * len(ends) or (separators[width - 1 :: width] != ends).any():
            return False
        fields = data.decode("ascii").replace("\n", ",").split(",")
        fields.pop()  # the empty field after the last LF
        names, stamps, lats, lons, apps = (fields[k::width] for k in range(5))
        labels = fields[5::6] if width == 6 else []
        try:  # a number the line loop rejects raises ValueError here too; int64 overflow raises OverflowError
            timestamp = np.fromiter(map(int, stamps), np.int64, len(ends))
            lat = np.fromiter(map(float, lats), np.float64, len(ends))
            lon = np.fromiter(map(float, lons), np.float64, len(ends))
        except (ValueError, OverflowError):
            return False
        if timestamp.min() < 0 or not ((np.abs(lat) <= 90.0).all() and (np.abs(lon) <= 180.0).all()):  # NaN fails
            return False
        distinct_names, distinct_labels = dict.fromkeys(names), dict.fromkeys(labels)  # each distinct field once
        if not all(map(str.strip, distinct_names)):  # an empty user id
            return False
        if not all(not code or len(code) == 2 and code.isalpha() for code in map(str.strip, distinct_labels)):
            return False
        users, sources, countries = self.users, self.sources, self.countries
        user = _coded(names, distinct_names, lambda u: users.setdefault(u.strip(), len(users)))
        source = _coded(apps, dict.fromkeys(apps), lambda s: sources.setdefault(s.strip(), len(sources)))
        country = np.full(len(ends), -1, dtype=np.intc)
        if labels:
            label = lambda c: countries.setdefault(code, len(countries)) if (code := c.strip().upper()) else -1
            country = _coded(labels, distinct_labels, label)
        lon = np.where(lon == -180.0, 180.0, lon)  # normalize_lon's one change to an in-range longitude
        self._append(user, timestamp, lat, lon, source, country)
        self.n_lines += len(ends)
        return True

    def report(self) -> ParseReport:
        """The table of the rows so far, its codes renumbered into the sorted vocabularies a block at a time."""
        for column in self.columns:
            column.resize(self.n_rows, refcheck=False)  # no view of a column exists yet
        user, timestamp, lat, lon, source, country = self.columns
        vocabularies = [_renumbered(names, codes) for names, codes in ((self.users, user), (self.sources, source),
                                                                      (self.countries, country))]
        events = EventTable(*vocabularies, user, timestamp, lat, lon, source, country)
        return ParseReport(events, self.errors, self.n_lines, self.header_skipped, self.n_malformed)


def _renumbered(vocabulary: dict[str, int], codes: np.ndarray) -> list[str]:
    """A vocabulary in sorted order, its first-seen codes (-1 kept) renumbered into it in place."""
    names = sorted(vocabulary)
    position = {name: i for i, name in enumerate(names)}
    renumber = np.array([position[name] for name in vocabulary] + [-1], dtype=codes.dtype)
    for start in range(0, len(codes), BLOCK_ROWS):
        block = codes[start : start + BLOCK_ROWS]
        block[:] = renumber[block]
    return names


def parse_events(stream: Iterable[str] | Iterable[bytes] | BinaryIO) -> ParseReport:
    """Parse a line-delimited event stream into an EventTable, streaming rows into compact columns.

    Every well-formed line yields exactly one row, in input order. Malformed
    lines are counted and skipped, never silently dropped, and the first
    MAX_ERRORS keep their 1-based line number and reason:
    len(events) + n_malformed + header == total lines. Lines given as bytes
    are decoded as UTF-8 one by one, so an undecodable line is one malformed line.

    An iterable of lines goes through the line loop. A binary file (`open(path, "rb")`, io.BytesIO) sends its line 1
    there, and the rest a block of BLOCK_ROWS lines at a time through the block path; a block that the block path
    does not take whole goes through the line loop instead. The report is the same either way.
    """
    columns = _Columns()
    if isinstance(stream, io.BufferedIOBase):
        columns.lines(islice(stream, 1))  # header detection stays with the line loop
        columns.reserve(lines_left(stream))
        for data in _blocks(stream):
            columns.block(data)
    else:
        lines = iter(stream)
        while chunk := list(islice(lines, BLOCK_ROWS)):
            columns.lines(chunk)
    return columns.report()


# ---------------------------------------------------------------------------
# Country boundaries and point-in-polygon lookup
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CountryBoundary:
    """Territory outline: one country code and its polygons (with holes)."""

    code: str
    polygons: list[Polygon]

    def __post_init__(self) -> None:
        code = self.code  # every outline is checked here, wherever it comes from
        if len(code) != 2 or not code.isalpha():  # the rule _parse_line holds event labels to
            raise ValueError(f"bad country code: {code!r}")
        for polygon in self.polygons:
            if not polygon:
                raise ValueError(f"{code}: polygon has no rings")
            for ring in polygon:
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
                        jump = abs(lon2 - lon1)
                        raise ValueError(f"{code}: ring jumps {jump:.3f} deg in lon; split at the antimeridian")
                for _, lat in ring:
                    if not -90.0 <= lat <= 90.0:
                        raise ValueError(f"{code}: latitude {lat} out of range")


# Points x edges pairs per block of the labeling kernel: bounds its
# temporaries to a few MiB whatever the event count or outline detail.
_BLOCK_PAIRS = 1 << 16
_BAND_EDGES = 16  # edges per horizontal band of a polygon's box, about: a point meets only its band's edges


def _contains(edges: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed even-odd containment of m (lon x, lat y) points in a polygon's (n, 4) edge rows.

    Each float expression keeps the operand order of the scalar
    crossing-number test (Haines, Graphics Gems IV, 1994), and numpy
    evaluates it elementwise without fused multiply-add, so every decision
    is the scalar one. (x2, y2) is the later vertex of each edge.
    """
    x1, y1, x2, y2 = edges.T
    x, y = x[:, None], y[:, None]
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
        # Per polygon, in code order: code position, bbox corners, (n, 4) float64 edge rows x1, y1, x2, y2 of all
        # its rings, band cuts and, per band, the int32 indices of the edges whose closed y-range meets the band.
        self._entries: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]] = []
        for boundary in sorted(boundaries, key=lambda b: b.code):
            if boundary.code in self._codes:
                raise ValueError(f"duplicate country code {boundary.code!r}")
            self._codes.append(boundary.code)
            for polygon in boundary.polygons:
                rings = [np.fromiter(chain.from_iterable(r), np.float64, 2 * len(r)).reshape(-1, 2) for r in polygon]
                edges = np.concatenate([np.hstack((ring[:-1], ring[1:])) for ring in rings])
                lo, hi = edges[:, :2].min(axis=0), edges[:, :2].max(axis=0)  # rings are closed
                cuts, bands = np.empty(0), []  # one band: every point meets every edge
                if len(edges) >= 2 * _BAND_EDGES:  # band j: closed [cuts[j - 1], cuts[j]], ends lo[1] and hi[1]
                    cuts = np.linspace(lo[1], hi[1], len(edges) // _BAND_EDGES + 1)[1:-1]
                    first = np.searchsorted(cuts, np.minimum(edges[:, 1], edges[:, 3]), "left")
                    span = np.searchsorted(cuts, np.maximum(edges[:, 1], edges[:, 3]), "right") - first + 1
                    band = np.arange(span.sum()) + np.repeat(first - np.cumsum(span) + span, span)
                    order = np.argsort(band)  # any order of a band's edges gives the same any() and parity
                    members = np.repeat(np.arange(len(edges), dtype=np.int32), span)[order]
                    starts = np.searchsorted(band[order], np.arange(len(cuts) + 2)).tolist()
                    bands = [members[a:b] for a, b in zip(starts, starts[1:])]
                self._entries.append((len(self._codes) - 1, lo, hi, edges, cuts, bands))

    def _labels(self, lons: Sequence[float], lats: Sequence[float]) -> np.ndarray:
        """Position in self._codes of the country containing each point, -1 for none.

        Each polygon, in code order, tests the points still unlabeled in its box against their band's edges, in
        blocks of about _BLOCK_PAIRS point-edge pairs: exact, as an edge missing y is neither on-edge nor crossing.
        """
        x, y = np.asarray(lons, dtype=np.float64), np.asarray(lats, dtype=np.float64)
        label = np.full(len(x), -1)
        for k, lo, hi, edges, cuts, bands in self._entries:
            todo = np.flatnonzero((label < 0) & (lo[0] <= x) & (x <= hi[0]) & (lo[1] <= y) & (y <= hi[1]))
            groups = [(todo, edges)]
            if bands:  # several bands: group the points by band
                band = np.searchsorted(cuts, y[todo], "right")
                order = np.argsort(band, kind="stable")
                split = np.split(todo[order], np.searchsorted(band[order], np.arange(1, len(bands))))
                groups = ((points, edges[index]) for points, index in zip(split, bands) if len(points) and len(index))
            for points, group_edges in groups:
                step = max(1, _BLOCK_PAIRS // len(group_edges))
                for start in range(0, len(points), step):
                    block = points[start : start + step]
                    label[block[_contains(group_edges, x[block], y[block])]] = k
        return label

    def locate(self, lon: float, lat: float) -> str | None:
        """Country code containing (lon, lat), or None (open ocean)."""
        k = int(self._labels([lon], [lat])[0])
        return self._codes[k] if k >= 0 else None


def label_events(events: EventTable, index: BoundaryIndex | None) -> tuple[EventTable, int]:
    """Label the unlabeled events in place; returns (the same table, dropped count).

    Pre-labeled events keep their label. Events that end up with no country
    (open ocean, or no boundary set) are dropped from the table (EventTable.select)
    and counted: downstream stages require a country on every event.
    """
    if index is not None:
        countries = sorted(set(events.countries).union(index._codes))
        dtype = _code_dtype(len(countries))
        country = np.array([*map(countries.index, events.countries), -1], dtype=dtype)[events.country]
        located = np.array([*map(countries.index, index._codes), -1], dtype=dtype)
        step = BLOCK_ROWS << 4  # rows at a time, as other passes but longer: each block costs a pass per polygon
        for start in range(0, len(events), step):  # each point's label is its own, so any blocks give the same
            todo = start + np.flatnonzero(country[start : start + step] < 0)
            country[todo] = located[index._labels(events.lon[todo], events.lat[todo])]
        events.countries, events.country = countries, country
    keep = events.country >= 0
    dropped = len(events) - int(np.count_nonzero(keep))
    if dropped:
        events.select(keep)
    return events, dropped


def load_boundaries(path: str) -> list[CountryBoundary]:
    """Read a GeoJSON FeatureCollection of country outlines.

    Each feature needs a `code` property (ISO alpha-2) and a Polygon or
    MultiPolygon geometry. Rings crossing the antimeridian are rejected;
    suppliers must pre-split them.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (RecursionError, ValueError) as exc:  # nested too deeply, not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from exc
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
            boundary = CountryBoundary(code=str(code), polygons=polygons)
        except (AttributeError, TypeError, IndexError, ValueError, OverflowError) as exc:  # overflow: an integer no float holds
            raise ValueError(f"boundary feature {number}: {exc}") from exc
        boundary.code = boundary.code.upper()  # checked first, so its errors name the code as the file writes it
        out.append(boundary)
    return out


def build_trajectories(events: EventTable) -> np.ndarray:
    """Row order of the per-user trajectories: users in id order, each by timestamp, ties in input order.

    The order is the permutation of np.lexsort((timestamp, user)), as int32 below 2**31 rows, with no temporary
    beyond a block of rows and three int64 per user: a stable counting sort by user, BLOCK_ROWS rows at a time,
    then each block of whole users about BLOCK_ROWS rows long sorted by (user, timestamp), which keeps the input
    order of ties. That last pass is skipped when each user's rows already come in time order, as in a
    time-ordered stream.
    """
    user, n = events.user, len(events)
    offsets = np.zeros(len(events.users) + 1, dtype=np.int64)  # user k's rows go to offsets[k]:offsets[k + 1]
    for start in range(0, n, BLOCK_ROWS):
        np.add.at(offsets[1:], user[start : start + BLOCK_ROWS], 1)
    offsets = np.cumsum(offsets)
    free = offsets[:-1].copy()  # each user's next place
    latest = np.full(len(events.users), -1, dtype=np.int64)  # each user's timestamp so far; every one is >= 0
    in_time_order = True
    order = np.empty(n, dtype=np.int32 if n < 2**31 else np.int64)
    for start in range(0, n, BLOCK_ROWS):
        block = user[start : start + BLOCK_ROWS]
        by_user = np.argsort(block, kind="stable")
        codes, stamps = block[by_user], events.timestamp[start : start + BLOCK_ROWS][by_user]
        position = np.arange(len(codes))
        first = np.searchsorted(codes, codes)  # where the run of each row's user starts in the block
        order[free[codes] + position - first] = start + by_user
        np.add.at(free, block, 1)
        run_start = first == position
        previous = np.r_[0, stamps[:-1]]  # the timestamp of the user's row before each row
        previous[run_start] = latest[codes[run_start]]
        in_time_order = in_time_order and bool((stamps >= previous).all())
        run_end = np.r_[run_start[1:], True]
        latest[codes[run_end]] = stamps[run_end]
    if not in_time_order:
        starts = offsets[np.searchsorted(offsets, np.arange(0, n, BLOCK_ROWS), side="right") - 1]  # ascending
        cuts = [*dict.fromkeys(starts.tolist()), n]
        for lo, hi in zip(cuts, cuts[1:]):
            rows = order[lo:hi]
            order[lo:hi] = rows[np.lexsort((events.timestamp[rows], user[rows]))]
    return order
