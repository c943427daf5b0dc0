"""The transient memory of the per-event passes does not grow with the event count.

tracemalloc counts the bytes that Python and numpy allocate, not resident
pages, so these bounds hold on any machine. Each pass is measured on files
of 8 and of 32 blocks of BLOCK_ROWS lines over the same vocabularies
(the vocabularies are held per name, not per event): its peak above what it
returns may exceed the 8-block one by no more than SLACK bytes. A block of
whole users also holds the longest user's rows, 66 here.
"""

import tracemalloc

import pytest

from geoflow import clean, ingest, metrics, residence

BLOCK_ROWS = 1024
SLACK = 16 << 10  # bytes; a pass holding 1 B more per event would exceed it by 24 * BLOCK_ROWS
USERS = 500


def events_file(path, blocks):
    """blocks * BLOCK_ROWS event lines of USERS users in two countries, one in 97 a teleport and one in 89 earlier
    than the user's line before it."""
    lines = ["user_id,timestamp,lat,lon,source,country"]
    for i in range(blocks * ingest.BLOCK_ROWS):
        jump = 60.0 if i % 97 == 0 else 0.0
        lat, lon = (i % 1000) / 100.0 - jump, (i % 777) / 10.0 - 40.0 + jump
        timestamp = 1_300_000_000 + 60 * i - (90_000 if i % 89 == 0 else 0)
        lines.append(f"u{i % USERS:03d},{timestamp},{lat!r},{lon!r},app{i % 7},{'AB'[i % 2]}A")
    path.write_text("\n".join(lines) + "\n")
    return path


def peak_above_result(run):
    """The peak of traced bytes while run() runs, less the bytes still traced when it returns (its result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held, held - start


def parsed(path):
    with open(path, "rb") as fh:
        return ingest.parse_events(fh).events


def trajectories(path):
    events = parsed(path)
    events.select(ingest.build_trajectories(events))
    return events


PASSES = {
    "parse_events": (lambda path: path, parsed),
    "build_trajectories": (parsed, ingest.build_trajectories),
    "speed_filter": (trajectories, clean.speed_filter),
    "source_popularity_filter": (trajectories, clean.source_popularity_filter),
    "user_gyration_radii": (trajectories, metrics.user_gyration_radii),
    "build_profiles": (trajectories, residence.build_profiles),
}


@pytest.mark.parametrize("name", PASSES)
def test_transient_memory_does_not_grow_with_the_events(tmp_path, monkeypatch, name):
    monkeypatch.setattr(ingest, "BLOCK_ROWS", BLOCK_ROWS)
    prepare, run = PASSES[name]
    extra = {}
    for blocks in (8, 32):
        argument = prepare(events_file(tmp_path / f"events{blocks}.csv", blocks))
        run(argument)  # numpy's first calls keep caches
        extra[blocks], result = peak_above_result(lambda: run(argument))
    assert extra[32] - extra[8] <= SLACK, (extra, result)
