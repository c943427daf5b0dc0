"""Deterministic delimited-file IO for every pipeline artifact.

All writers emit LF newlines, a fixed header, rows in a defined order, and
shortest round-trip float spellings, so identical inputs produce
byte-identical files. Nothing here stamps timestamps or machine state.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from array import array
from contextlib import contextmanager, suppress
from typing import IO, Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import ingest
from .ingest import EventTable


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


def _split_lines(path: str) -> list[list[str]]:
    """The fields of each nonblank line. Lines end at LF only, as ingest reads them; a CR before it is dropped."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        rows = [line.rstrip("\r\n").split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty table")
    return rows


def read_rows(path: str, expected_header: Sequence[str] | None = None) -> list[list[str]]:
    header, *rows = _split_lines(path)
    if expected_header is not None and header != list(expected_header):
        raise ValueError(f"{path}: header {header} != expected {list(expected_header)}")
    return rows


def write_json(path: str, obj: Any) -> None:
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
    """Write an event table, each block of ingest.BLOCK_ROWS rows formatted and encoded at once.

    Given `copy`, the lines of an earlier event file that formatted these same events are copied instead, through
    a read-only map of that file; a file whose size is not its last offset raises ValueError before anything is
    written.
    """
    if copy is None:
        step = ingest.BLOCK_ROWS
        blocks = (_format_rows(events, start, start + step).encode() for start in range(0, len(events), step))
        return _write_blocks(path, blocks)
    if len(copy.rows) != len(events):
        raise ValueError(f"{len(copy.rows)} lines to copy for {len(events)} events")
    with open(copy.path, "rb") as source:
        size = os.fstat(source.fileno()).st_size
        if size != copy.ends[-1]:
            raise ValueError(f"{copy.path}: {size} bytes, but its lines end at byte {copy.ends[-1]}; rerun its stage")
        with mmap.mmap(source.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            _write_blocks(path, _copied_lines(mapped, copy.ends, copy.rows))


def _copied_lines(mapped: mmap.mmap, ends: np.ndarray, rows: np.ndarray) -> Iterator[bytes]:
    """The mapped lines of `rows`, a block at a time; each block's pages are given back to the cache after it."""
    for start in range(0, len(rows), ingest.BLOCK_ROWS):
        block = rows[start : start + ingest.BLOCK_ROWS]
        yield b"".join(map(mapped.__getitem__, map(slice, ends[block].tolist(), ends[block + 1].tolist())))
        if hasattr(mmap, "MADV_DONTNEED"):  # the pages stay cached; only this process's RSS drops
            mapped.madvise(mmap.MADV_DONTNEED)


def _write_blocks(path: str, blocks: Iterable[bytes]) -> None:
    """The event header and then `blocks` of whole lines."""
    with replacing(path, binary=True) as fh:
        fh.write((",".join(EVENT_HEADER) + "\n").encode())
        fh.writelines(blocks)


def _format_rows(events: EventTable, start: int, stop: int) -> str:
    """Rows start:stop of an event table as the lines of its file."""
    users, sources, countries = events.users, events.sources, events.countries + [""]
    columns = (events.user, events.timestamp, events.lat, events.lon, events.source, events.country)
    block = (column[start:stop].tolist() for column in columns)
    return "".join([f"{users[u]},{t},{y!r},{x!r},{sources[s]},{countries[c]}\n" for u, t, y, x, s, c in zip(*block)])


def line_ends(path: str) -> np.ndarray:
    """The offset past each line of a file, its header's first, read 256 bytes per block row at a time.

    A file that does not end with a line end raises ValueError: its last line could not be copied whole.
    """
    ends, offset = array("q"), 0
    with open(path, "rb") as fh:
        while data := fh.read(ingest.BLOCK_ROWS << 8):
            ends.frombytes((np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + (offset + 1)).tobytes())
            offset += len(data)
    if not ends or ends[-1] != offset:
        raise ValueError(f"{path}: the last line has no line end")
    return np.frombuffer(ends, dtype=np.int64)


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


class DuplicateCodeError(ValueError):
    """A code table names one country twice."""


def _code_rows(path: str) -> list[tuple[str, list[str]]]:
    """The code (stripped, upper case) and fields of each row of a code table.

    Line 1 is a header only when its second field is not a number, as for
    events. A code that two rows name, in any case, raises DuplicateCodeError.
    """
    rows = _split_lines(path)
    if len(rows[0]) >= 2:
        try:
            float(rows[0][1])
        except ValueError:
            rows = rows[1:]
    out: dict[str, list[str]] = {}
    for row in rows:
        code = row[0].strip().upper()
        if code in out:
            raise DuplicateCodeError(f"{path}: code {code} appears on more than one row")
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
    for code, row in _code_rows(path):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: expected 2 or 3 fields, got {row}")
        populations[code] = _number(path, code, row[1], int)
        if len(row) == 3 and row[2].strip():
            gdp[code] = _number(path, code, row[2])
    return populations, gdp


def read_capitals(path: str) -> dict[str, tuple[float, float]]:
    """Capitals table `code,lat,lon` -> code -> (lat, lon), in degrees: |lat| <= 90 and |lon| <= 180."""
    out: dict[str, tuple[float, float]] = {}
    for code, row in _code_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}: expected 3 fields, got {row}")
        lat, lon = _number(path, code, row[1]), _number(path, code, row[2])
        if abs(lat) > 90.0 or abs(lon) > 180.0:
            raise ValueError(f"{path}: code {code}: capital ({lat}, {lon}) is outside |lat| <= 90, |lon| <= 180")
        out[code] = (lat, lon)
    return out


def read_reference(path: str, column: int = 1) -> dict[str, float]:
    """Reference statistics `code,<value>[,...]`, one numeric column selected."""
    out: dict[str, float] = {}
    for code, row in _code_rows(path):
        if column >= len(row):
            raise ValueError(f"{path}: row {row} has no column {column}")
        out[code] = _number(path, code, row[column])
    return out
