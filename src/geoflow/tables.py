"""Deterministic delimited-file IO for every pipeline artifact.

All writers emit LF newlines, a fixed header, rows in a defined order, and
shortest round-trip float spellings, so identical inputs produce
byte-identical files. Nothing here stamps timestamps or machine state.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from typing import IO, Any, Iterable, Iterator, Sequence

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
def replacing(path: str) -> Iterator[IO[str]]:
    """Open a sibling temp file for writing, then move it over `path`.

    A reader never sees a half-written file: if the write fails, the temp
    file is removed and any previous `path` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
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


def event_rows(events: EventTable) -> list[str]:
    """Each event's event-table line, newline included, formatted a block at a time to bound transient objects."""
    users, sources, countries = events.users, events.sources, events.countries + [""]
    columns = (events.user, events.timestamp, events.lat, events.lon, events.source, events.country)
    rows: list[str] = []
    for start in range(0, len(events), 1 << 14):
        block = (column[start : start + (1 << 14)].tolist() for column in columns)
        rows += [f"{users[u]},{t},{y!r},{x!r},{sources[s]},{countries[c]}\n" for u, t, y, x, s, c in zip(*block)]
    return rows


def write_events(path: str, rows: Sequence[str]) -> None:
    """An event table of rows as event_rows formats them."""
    with replacing(path) as fh:
        fh.write(",".join(EVENT_HEADER) + "\n")
        fh.writelines(rows)


def read_events(path: str) -> EventTable:
    """Strict read of a previously written event table (no malformed rows)."""
    with open(path, encoding="utf-8", newline="\n") as fh:
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


def read_census(path: str) -> tuple[dict[str, int], dict[str, float]]:
    """Census table `code,population[,gdp_per_capita]` -> (populations, gdp)."""
    populations: dict[str, int] = {}
    gdp: dict[str, float] = {}
    for code, row in _code_rows(path):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: expected 2 or 3 fields, got {row}")
        populations[code] = int(row[1])
        if len(row) == 3 and row[2].strip():
            gdp[code] = float(row[2])
    return populations, gdp


def read_capitals(path: str) -> dict[str, tuple[float, float]]:
    """Capitals table `code,lat,lon` -> code -> (lat, lon)."""
    out: dict[str, tuple[float, float]] = {}
    for code, row in _code_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}: expected 3 fields, got {row}")
        out[code] = (float(row[1]), float(row[2]))
    return out


def read_reference(path: str, column: int = 1) -> dict[str, float]:
    """Reference statistics `code,<value>[,...]`, one numeric column selected."""
    out: dict[str, float] = {}
    for code, row in _code_rows(path):
        if column >= len(row):
            raise ValueError(f"{path}: row {row} has no column {column}")
        out[code] = float(row[column])
    return out
