"""Deterministic delimited-file IO for every pipeline artifact.

All writers emit LF newlines, a fixed header, rows in a defined order, and
shortest round-trip float spellings, so identical inputs produce
byte-identical files. Nothing here stamps timestamps or machine state.

Per-event, per-user and per-country-day files (events, displacements,
gyration radii, profiles, daily series) are written from columns by
csv_blocks, a block of ingest.BLOCK_ROWS rows at a time, each block as
one NUL-padded uint8 matrix with a row per line. Floats get repr's
text without a repr call per value: the shortest round-trip digits come
from the e2 < 0 branch of Ryu (Adams, PLDI 2018) as array passes, which
covers 2**-14 <= |x| < 2**50 (biased exponents 1009 to 1072) and is used
for 0.0 and 1e-4 <= |x| < 2**50, where repr takes the fixed form. Each
floor of m * 5**i / 2**q is exact in 64-bit integers: a float64 estimate
of it is off by less than 2**10 and q <= 46, so the true remainder lies
inside (-2**63, 2**63) and its low 64 bits, which wrap-around arithmetic
gives exactly, are its value. A block holding any other float (NaN,
infinities, subnormals, |x| < 1e-4 or >= 2**50), a name with a NUL, or a
name longer than _MAX_NAME_BYTES is written line by line with repr
instead. Tests pin both paths to repr's bytes.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import sys
from contextlib import contextmanager, suppress
from operator import itemgetter
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import ingest
from .ingest import EventTable
from .sphere import MAX_DISTANCE_KM


def fmt(value: Any) -> str:
    """Render a cell: floats via repr (shortest exact form), None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@contextmanager
def replacing(path: str, binary: bool = False) -> Iterator[IO[Any]]:
    """Open a sibling temp file for writing (text, or bytes if `binary`), then move it over `path`.

    A reader never sees a half-written file: if the write fails, the temp
    file is removed and any previous `path` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(cell) for cell in row) + "\n")


def write_blocks(path: str, header: Sequence[str], blocks: Iterable[bytes]) -> None:
    """A CSV file: the header line, then `blocks` of whole lines, as csv_blocks yields them."""
    with replacing(path, binary=True) as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(blocks)


def _numbered_lines(path: str) -> tuple[list[int], list[list[str]]]:
    """The 1-based numbers of the nonblank lines, and the fields of each. Lines end at LF only, as ingest reads
    them; a CR before it is dropped. A byte that is not UTF-8 raises ValueError naming the file and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8") from None
    lines = text.split("\n")
    numbers = [n for n, line in enumerate(lines, start=1) if line.strip()]
    if not numbers:
        raise ValueError(f"{path}: empty table")
    return numbers, [lines[n - 1].rstrip("\r").split(",") for n in numbers]


class Kind(NamedTuple):
    """What the cells of a column or the values of a JSON key hold, as `what` names it in errors: `read` converts
    one, raising ValueError or KeyError if it cannot, and `valid` tells whether all the values are in range."""

    what: str
    read: Callable[[Any], Any]
    valid: Callable[[list[Any]], Any] = lambda values: True

    def values(self, cells: list[str]) -> list[Any] | None:
        """The values of `cells`, read a column at a time; None unless each reads and all are valid."""
        try:
            values = list(map(self.read, cells))
            return values if self.valid(values) else None
        except (ValueError, KeyError, OverflowError):  # OverflowError: a JSON int too large for a float
            return None

    def or_empty(self) -> Kind:
        """This kind, or an empty cell, which reads as None."""
        return Kind(f"{self.what} or empty", lambda cell: self.read(cell) if cell else None,
                    lambda values: self.valid([value for value in values if value is not None]))


def _floats(what: str, low: float, high: float) -> Kind:
    """Floats from `low` to `high`, checked as one float64 array: NaN is in no range."""
    return Kind(what, float, lambda values: ((low <= (array := np.array(values, dtype=float))) & (array <= high)).all())


TEXT = Kind("text", str)
NAME = Kind("a name", str, all)
BOOL = Kind("true or false", {"true": True, "false": False}.__getitem__)
INTEGER = Kind("an integer", int)  # a census population may pass int64
COUNT = Kind("a count", int, lambda values: min(values, default=0) >= 0)
NUMBER = _floats("a finite number", -sys.float_info.max, sys.float_info.max)
NONNEGATIVE = _floats("a nonnegative finite number", 0.0, sys.float_info.max)
DISTANCE = _floats(f"a distance from 0 to {MAX_DISTANCE_KM!r}", 0.0, MAX_DISTANCE_KM)


def _json(what: str, *types: type, valid: Callable[[list[Any]], Any] = lambda values: True) -> Kind:
    """JSON values of exactly one of `types` (a bool is no int): `read` raises KeyError for a value of any other.
    The JSON kinds mean what the CSV kinds do: a count is a nonnegative int, and a number a finite int or float."""
    return Kind(what, lambda value: dict.fromkeys(types, value)[type(value)], valid)


JSON_COUNT = _json("a count", int, valid=COUNT.valid)
# math.isfinite, not numpy: a stage's JSON write touches no numpy code page before the stage's peak.
JSON_NUMBER = _json("a number", int, float, valid=lambda values: all(map(math.isfinite, values)))
JSON_BOOL = _json("true or false", bool)
JSON_TEXT = _json("text", str)
JSON_LIST = _json("a list", list)
JSON_OBJECT = _json("an object", dict)


def read_rows(path: str, columns: Mapping[str, Kind]) -> dict[str, list[Any]]:
    """The values of each column of a table with header `columns`, read whole as its Kind declares. A row of another
    field count, or a cell not of its column's kind, raises ValueError naming the file, line and column."""
    numbers, (header, *rows) = _numbered_lines(path)
    if header != list(columns):
        raise ValueError(f"{path}: header {header} != expected {list(columns)}")
    if set(map(len, rows)) - {len(header)}:
        lineno, fields = next((n, fields) for n, fields in zip(numbers[1:], rows) if len(fields) != len(header))
        raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
    out: dict[str, list[Any]] = {}
    for column, (name, kind) in enumerate(columns.items()):
        out[name] = kind.values(list(map(itemgetter(column), rows)))
        if out[name] is None:
            cells = ((n, fields[column]) for n, fields in zip(numbers[1:], rows))
            lineno, cell = next((n, cell) for n, cell in cells if kind.values([cell]) is None)
            raise ValueError(f"{path}:{lineno}: column {name}: {cell.strip()!r} is not {kind.what}")
    return out


def write_json(path: str, obj: Any) -> None:
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict[str, Any]:
    """A JSON object; ValueError naming the file for a document that does not decode, nests too deep or is not one."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# CSV lines from columns
# ---------------------------------------------------------------------------

# A column of csv_blocks: an integer, bool or float64 array, or a vocabulary with the int codes of its rows.
Column = np.ndarray | tuple[Sequence[str], np.ndarray]

_BOOL_TEXT = ("false", "true")  # fmt's text: a bool array is written as this vocabulary's column

_MAX_NAME_BYTES = 64  # a longer name sends its block to the line-at-a-time path
_U64 = np.uint64
_P10 = np.array([10**k for k in range(20)], dtype=_U64)  # 10**19 < 2**64 < 10**20
# "0000" to "9999" as one uint32 each, so that a gather writes four digits at once.
_QUAD_TEXT = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_QUAD_TEXT = _QUAD_TEXT.reshape(-1).view(np.uint32)
# _QUAD_MASK[16 + k] clears the first k bytes of a four-digit group: none for k <= 0, all for k >= 4.
_QUAD_MASK = np.frombuffer(b"\xff" * 68 + b"\0\xff\xff\xff\0\0\xff\xff\0\0\0\xff" + b"\0" * 80, dtype=np.uint32)

# Ryu's e2 < 0 constants for each biased exponent 1009..1072: x = mv * 2**e2 with mv = 4 * mantissa and
# e2 = exponent - 1077, q = floor(-e2 * log10(5)) - 1, i = -e2 - q, and the digits start at 10**(q + e2).
_RYU = [(e, (e * 732923 >> 20) - 1) for e in range(68, 4, -1)]  # (-e2, q)
_Q = np.array([q for _, q in _RYU], dtype=np.int64)
_Q_MASK = np.array([2**q - 1 for _, q in _RYU], dtype=_U64)
_POW5 = np.array([5 ** (e - q) for e, q in _RYU], dtype=_U64)  # at most 5**22 < 2**53
_SCALE = np.array([5 ** (e - q) / 2**q for e, q in _RYU])  # exact
_E10 = np.array([q - e for e, q in _RYU], dtype=np.int64)


def csv_blocks(columns: Sequence[Column]) -> Iterator[bytes]:
    """The CSV lines of the columns' rows (cells joined by commas, each line ended by LF), ingest.BLOCK_ROWS
    rows at a time: the bytes of f"{name},{integer},{float!r}\\n" per row, without a str call per cell. A bool
    reads true or false, as fmt writes it."""
    columns = [(_BOOL_TEXT, c.view(np.uint8)) if isinstance(c, np.ndarray) and c.dtype == bool else c for c in columns]
    size = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    for start in range(0, size, ingest.BLOCK_ROWS):
        cut = slice(start, start + ingest.BLOCK_ROWS)
        yield _csv_block([(c[0], c[1][cut]) if isinstance(c, tuple) else c[cut] for c in columns])


def _csv_block(columns: list[Column]) -> bytes:
    """One block's lines: every row's cells side by side in a NUL-padded uint8 matrix, less the NULs; or, when
    some cell cannot go in it, one format call per row."""
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    parts: list[np.ndarray] = []
    for column in columns:
        if isinstance(column, tuple):
            text = _name_text(*column)
        elif column.dtype.kind == "f":
            text = _float_text(column)
        else:
            text = _int_text(column)
        if text is None:
            cells = [map(c[0].__getitem__, c[1].tolist()) if isinstance(c, tuple) else map(repr, c.tolist())
                     for c in columns]
            return "".join(map(("{}," * (len(columns) - 1) + "{}\n").format, *cells)).encode()
        parts += [*text, np.full((rows, 1), ord(","), dtype=np.uint8)]
    parts[-1] = np.full((rows, 1), ord("\n"), dtype=np.uint8)
    lines = np.concatenate(parts, axis=1)
    return lines[lines != 0].tobytes()


def _name_text(names: Sequence[str], codes: np.ndarray) -> list[np.ndarray] | None:
    """names[code] of each row, NUL-padded; None if one holds a NUL or is longer than _MAX_NAME_BYTES."""
    used, inverse = np.unique(codes, return_inverse=True)
    encoded = [names[code].encode() for code in used.tolist()]
    width = max(map(len, encoded))
    if width > _MAX_NAME_BYTES or b"\0" in b"".join(encoded):
        return None
    table = np.array(encoded, dtype=f"S{max(width, 1)}")
    return [table[inverse].view(np.uint8).reshape(len(codes), -1)]


def _int_text(values: np.ndarray) -> list[np.ndarray]:
    """Each integer in decimal, NUL-padded on the left."""
    bits = values.astype(np.int64).view(_U64)
    negative = values < 0
    magnitude = np.where(negative, ~bits + _U64(1), bits)  # two's complement: 2**63 for -2**63
    return _sign(negative) + [_digits(magnitude, _length(magnitude))]


def _float_text(values: np.ndarray) -> list[np.ndarray] | None:
    """repr of each float, NUL-padded; None unless every value is 0.0 or has 1e-4 <= |x| < 2**50."""
    size = np.abs(values)
    zero = size == 0
    if not (((size >= 1e-4) & (size < 2.0**50)) | zero).all():
        return None
    digits, exponent = _shortest(np.where(zero, 1.0, size))
    digits[zero] = 0  # 1.0's exponent is 0, as 0.0's is
    point = _P10[np.minimum(np.maximum(-exponent, 0), 17)]  # up to 20 digits follow the point, but d < 10**17
    whole = digits // point
    fraction = digits - whole * point
    whole *= _P10[np.maximum(exponent, 0)]
    return _sign(np.signbit(values)) + [
        _digits(whole, _length(whole)),
        np.full((len(values), 1), ord("."), dtype=np.uint8),
        _digits(fraction, np.maximum(-exponent, 1)),  # zero-padded to the digits after the point
    ]


def _sign(negative: np.ndarray) -> list[np.ndarray]:
    """A column of "-" or NUL, if any row is negative."""
    return [(negative * ord("-")).astype(np.uint8)[:, None]] if negative.any() else []


def _length(values: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each value, 1 for 0."""
    return np.maximum(np.searchsorted(_P10, values, side="right"), 1)


def _digits(values: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each value right-aligned in decimal, zero-padded to `width` digits and NUL-padded beyond them; every
    value is below 10**width."""
    columns = int(width.max())
    quads = -(-columns // 4)
    blank = 4 * quads - width + 16  # the NUL bytes before each value, plus _QUAD_MASK's offset
    text = np.empty((len(values), quads), dtype=np.uint32)
    for quad in range(quads - 1, -1, -1):
        rest = values // _U64(10_000)
        text[:, quad] = _QUAD_TEXT[(values - rest * _U64(10_000)).view(np.int64)] & _QUAD_MASK[blank - 4 * quad]
        values = rest
    return text.view(np.uint8)[:, 4 * quads - columns :]


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) with d * 10**e the shortest decimal that reads back as each value, the nearest to it when
    several are shortest and the one with even d on a tie, as repr chooses; for 2**-14 <= x < 2**50.

    Ryu's e2 < 0 branch: vr, vp and vm are floor(m * 5**i / 2**q) for m the value and its upper and lower
    rounding bounds. Digits go while vp and vm still differ once divided by 10; the last one removed rounds."""
    bits = values.view(_U64)
    row = (bits >> _U64(52)).astype(np.intp) - 1009
    mantissa = bits & _U64((1 << 52) - 1)
    q, pow5 = _Q[row], _POW5[row]
    mv = (mantissa | _U64(1 << 52)) << _U64(2)
    product = mv * pow5  # the low 64 bits of m * 5**i
    estimate = (mv.astype(np.float64) * _SCALE[row]).astype(_U64)
    vr = estimate.view(np.int64) + ((product - (estimate << q.view(_U64))).view(np.int64) >> q)
    remainder = (product & _Q_MASK[row]).view(np.int64)  # (m * 5**i) % 2**q; 0 iff vr is exact
    pow5 = pow5.view(np.int64)
    vp = (vr + ((remainder + (pow5 << 1)) >> q)).view(_U64)  # m + 2
    vm = (vr + ((remainder - (pow5 << (mantissa != 0))) >> q)).view(_U64)  # m - 2, or m - 1 on a power of 2
    vr = vr.view(_U64)
    # Ryu removes the k digits below the last 10**k with vp // 10**k > vm // 10**k. That holds for each
    # 10**k <= vp - vm, often for the next power, and for higher ones only where a round number lies between
    # vm and vp: those few rows try every power.
    removed = np.searchsorted(_P10, vp - vm, side="right") - 1
    power = _P10[removed + 1]
    removed += (vm // power + _U64(1)) * power <= vp  # a multiple of the next power lies in (vm, vp]
    power = _P10[removed + 1]
    more = np.flatnonzero((vm // power + _U64(1)) * power <= vp)  # vp < 2**62 < 10**19, so removed + 1 <= 19
    removed[more] = (vp[more, None] // _P10 > vm[more, None] // _P10).sum(axis=1) - 1
    step = _P10[removed - 1]
    kept = vr // step  # all but the last removed digit gone
    digits = kept // _U64(10)
    last = kept - digits * _U64(10)
    tie = (last == 5) & (kept * step == vr) & (remainder == 0) & (digits & _U64(1) == 0)
    digits += ((vm >= digits * step * _U64(10)) | ((last >= 5) & ~tie)).astype(_U64)
    return digits, _E10[row] + removed


# ---------------------------------------------------------------------------
# Event files
# ---------------------------------------------------------------------------

EVENT_HEADER = ["user_id", "timestamp", "lat", "lon", "source", "country"]


class EventLines(NamedTuple):
    """Rows `rows` of the event file at `path`, in that order; `ends` holds the offset past its header and past
    each of its lines, as line_ends returns them."""

    path: str
    ends: np.ndarray
    rows: np.ndarray


def write_events(path: str, events: EventTable, copy: EventLines | None = None) -> None:
    """Write an event table, a block of ingest.BLOCK_ROWS rows at a time (csv_blocks; a country code of -1 is empty).

    Given `copy`, the lines of an earlier event file that formatted these same events are copied instead, through
    a read-only map of that file; a file whose size is not its last offset raises ValueError before anything is
    written.
    """
    if copy is None:
        columns = [(events.users, events.user), events.timestamp, events.lat, events.lon,
                   (events.sources, events.source), (events.countries + [""], events.country)]
        return write_blocks(path, EVENT_HEADER, csv_blocks(columns))
    if len(copy.rows) != len(events):
        raise ValueError(f"{len(copy.rows)} lines to copy for {len(events)} events")
    with open(copy.path, "rb") as source:
        size = os.fstat(source.fileno()).st_size
        if size != copy.ends[-1]:
            raise ValueError(f"{copy.path}: {size} bytes, but its lines end at byte {copy.ends[-1]}; rerun its stage")
        with mmap.mmap(source.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            write_blocks(path, EVENT_HEADER, _copied_lines(mapped, copy.ends, copy.rows))


def _copied_lines(mapped: mmap.mmap, ends: np.ndarray, rows: np.ndarray) -> Iterator[bytes]:
    """The mapped lines of `rows`, a block at a time; each block's pages are given back to the cache after it."""
    for start in range(0, len(rows), ingest.BLOCK_ROWS):
        block = rows[start : start + ingest.BLOCK_ROWS]
        yield b"".join(map(mapped.__getitem__, map(slice, ends[block].tolist(), ends[block + 1].tolist())))
        if hasattr(mmap, "MADV_DONTNEED"):  # the pages stay cached; only this process's RSS drops
            mapped.madvise(mmap.MADV_DONTNEED)


def line_ends(path: str) -> np.ndarray:
    """The offset past each line of a file, its header's first: the lines are counted, and then their ends found,
    a read of ingest.BLOCK_ROWS << 4 bytes at a time, into an array of exactly that many, int32 for a file below
    2 GiB.

    A file that does not end with a line end raises ValueError: its last line could not be copied whole.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        ends = np.empty(ingest.lines_left(fh) - 1, dtype=np.int32 if size < 2**31 else np.int64)
        done = offset = 0
        for data in ingest.file_reads(fh):
            found = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + (offset + 1)
            ends[done : done + len(found)] = found
            done, offset = done + len(found), offset + len(data)
    if done != len(ends) or not done or ends[-1] != offset:
        raise ValueError(f"{path}: the last line has no line end")
    return ends


def read_events(path: str) -> EventTable:
    """Strict read of a previously written event table (no malformed rows); a bad line raises ValueError naming it."""
    with open(path, "rb") as fh:
        report = ingest.parse_events(fh)
    if report.errors:
        lineno, reason = report.errors[0]
        raise ValueError(f"{path}:{lineno}: {reason}")
    return report.events


# ---------------------------------------------------------------------------
# Reference inputs
# ---------------------------------------------------------------------------


def code_rows(path: str) -> list[tuple[str, list[str]]]:
    """The code (stripped, upper case) and fields of each row of a code table.

    Line 1 is a header only when its second field is not a number, as for
    events. A code that two rows name, in any case, raises ValueError.
    """
    _, rows = _numbered_lines(path)
    if len(rows[0]) >= 2:
        try:
            float(rows[0][1])
        except ValueError:
            rows = rows[1:]
    out: dict[str, list[str]] = {}
    for row in rows:
        code = row[0].strip().upper()
        if code in out:
            raise ValueError(f"{path}: code {code} appears on more than one row")
        out[code] = row
    return list(out.items())


def _number(path: str, code: str, cell: str, kind: type = float) -> Any:
    """A code table's cell as a finite `kind`; any other cell raises ValueError naming the file and the code."""
    try:
        value = kind(cell)
    except ValueError:
        raise ValueError(f"{path}: code {code}: {cell.strip()!r} is not a number") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path}: code {code}: {cell.strip()!r} is not finite")
    return value


def read_census(path: str) -> tuple[dict[str, int], dict[str, float]]:
    """Census table `code,population[,gdp_per_capita]` -> (populations, gdp)."""
    populations: dict[str, int] = {}
    gdp: dict[str, float] = {}
    for code, row in code_rows(path):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: expected 2 or 3 fields, got {row}")
        populations[code] = _number(path, code, row[1], int)
        if len(row) == 3 and row[2].strip():
            gdp[code] = _number(path, code, row[2])
    return populations, gdp


def read_capitals(path: str) -> dict[str, tuple[float, float]]:
    """Capitals table `code,lat,lon` -> code -> (lat, lon), in degrees: |lat| <= 90 and |lon| <= 180."""
    out: dict[str, tuple[float, float]] = {}
    for code, row in code_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}: expected 3 fields, got {row}")
        lat, lon = _number(path, code, row[1]), _number(path, code, row[2])
        if abs(lat) > 90.0 or abs(lon) > 180.0:
            raise ValueError(f"{path}: code {code}: capital ({lat}, {lon}) is outside |lat| <= 90, |lon| <= 180")
        out[code] = (lat, lon)
    return out


def reference_column(path: str, rows: list[tuple[str, list[str]]], column: int) -> dict[str, float]:
    """Reference statistics `code,<value>[,...]`: one numeric column of the table's code_rows, by code."""
    out: dict[str, float] = {}
    for code, row in rows:
        if column >= len(row):
            raise ValueError(f"{path}: row {row} has no column {column}")
        out[code] = _number(path, code, row[column])
    return out
