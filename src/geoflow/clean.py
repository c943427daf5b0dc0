"""Two-stage event refinement: impossible-relocation removal, bot-source removal.

Stage one walks each user's trajectory and drops events implying travel
faster than a configurable speed cap. Stage two ranks event sources per
country by popularity and keeps only the sources that jointly cover a
target share of that country's source-usage mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ingest
from .ingest import EventTable, runs
from .sphere import haversine_km, haversine_many


def speed_filter(trajectories: EventTable, max_speed_kmh: float = 1000.0) -> tuple[np.ndarray, int]:
    """Keep mask dropping events that imply speed strictly above max_speed_kmh, and the drop count.

    The rows are in trajectory order (ingest.build_trajectories), as the
    clean stage sorts them. Each trajectory is scanned against its last
    retained event, whose first event is always retained; the later event of
    an offending pair is dropped. A zero time gap means infinite speed (drop)
    unless the distance is also zero (duplicate point, keep). Consecutive
    pairs are checked as arrays first, ingest.BLOCK_ROWS pairs at a time, and
    only users with an offending pair are scanned one by one.
    """
    t = trajectories
    keep = np.ones(len(t), dtype=bool)
    scanned = -1  # the last user scanned one by one
    for start in range(0, len(t) - 1, ingest.BLOCK_ROWS):
        stop = min(start + ingest.BLOCK_ROWS, len(t) - 1)
        pair = start + np.flatnonzero(t.user[start + 1 : stop + 1] == t.user[start:stop])
        dist = haversine_many(t.lat[pair], t.lon[pair], t.lat[pair + 1], t.lon[pair + 1])
        gap = t.timestamp[pair + 1] - t.timestamp[pair]
        ok = np.where(gap == 0, dist == 0.0, dist * 3600.0 <= max_speed_kmh * gap)
        for user in t.user[pair[~ok]]:  # the user of each offending pair, in ascending order
            if user > scanned:
                scanned = user
                rows = np.searchsorted(t.user, user, "left"), np.searchsorted(t.user, user, "right")  # needle: no cast
                _scan(t, keep, *rows, max_speed_kmh)
    return keep, len(t) - int(np.count_nonzero(keep))


def _scan(t: EventTable, keep: np.ndarray, start: int, end: int, max_speed_kmh: float) -> None:
    """Clear `keep` of the rows start:end, one user's trajectory, that imply a speed above the cap from the last
    retained row before them."""
    lat, lon, ts = (column[start:end].tolist() for column in (t.lat, t.lon, t.timestamp))
    last = 0
    for i in range(1, end - start):
        dist_km = haversine_km((lat[last], lon[last]), (lat[i], lon[i]))
        gap_s = ts[i] - ts[last]
        if (dist_km == 0.0) if gap_s == 0 else (dist_km * 3600.0 <= max_speed_kmh * gap_s):
            last = i
        else:
            keep[start + i] = False


@dataclass(slots=True)
class CleaningStats:
    """Survival accounting for the source-popularity filter."""

    rankings: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    users_before: int = 0
    users_after: int = 0
    events_before: int = 0
    events_after: int = 0

    @property
    def user_fraction(self) -> float:
        return self.users_after / self.users_before if self.users_before else 1.0

    @property
    def event_fraction(self) -> float:
        return self.events_after / self.events_before if self.events_before else 1.0


def source_popularity_filter(
    events: EventTable, coverage: float = 0.95, weight_mode: str = "users"
) -> tuple[dict[str, set[str]], np.ndarray, CleaningStats]:
    """Keep, per country, the most popular sources covering `coverage` of mass.

    Each country ranks its sources by mass, heaviest first, ties by name:
    distinct users per (country, source) in "users" mode, events in
    "events" mode. Sources are retained down the ranking until the
    cumulative mass first reaches coverage times the country's total; the
    source that crosses the threshold is retained. Returns the retained
    sources per country, the keep mask of the events with a retained
    (country, source) pair, and the statistics. The threshold comparison is
    exact: coverage is read as a decimal (0.95 means exactly 19/20).

    The rows are in trajectory order (ingest.build_trajectories), as the
    clean stage sorts them. They are read in blocks of whole users about
    ingest.BLOCK_ROWS rows long, each with its int64 (country, source) keys,
    so no temporary grows with the table.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    if weight_mode not in ("users", "events"):
        raise ValueError(f"weight_mode must be 'users' or 'events', got {weight_mode!r}")
    if np.any(events.country < 0):
        raise ValueError("every event needs a country label")
    n_sources = len(events.sources)
    cuts = ingest.user_blocks(events.user, ingest.BLOCK_ROWS)
    blocks = list(zip(cuts, cuts[1:]))

    def keys(lo: int, hi: int) -> np.ndarray:
        return events.country[lo:hi].astype(np.int64) * n_sources + events.source[lo:hi]

    masses: dict[int, int] = {}  # (country, source) key -> mass
    for lo, hi in blocks:
        key = keys(lo, hi)
        if weight_mode == "users":  # one key per distinct (user, key) of the block, which holds its users whole
            user = events.user[lo:hi] - events.user[lo]
            span = int(user[-1]) + 1
            key = np.sort(key * span + user)
            key = key[runs(key)[:-1]] // span
        else:
            key = np.sort(key)
        offsets = runs(key)
        for k, m in zip(key[offsets[:-1]].tolist(), np.diff(offsets).tolist()):
            masses[k] = masses.get(k, 0) + m
    pairs = np.array(sorted(masses), dtype=np.int64)  # by country, then source
    mass = np.array([*map(masses.get, pairs.tolist())], dtype=np.int64)
    country, source = np.divmod(pairs, n_sources)
    rank = np.lexsort((source, -mass, country))
    total = np.bincount(country, weights=mass, minlength=len(events.countries))  # exact: integer sums below 2**53
    share = Fraction(str(coverage))
    rankings: dict[str, list[tuple[str, int]]] = {}
    retained: dict[str, set[str]] = {}
    kept = np.zeros(len(pairs), dtype=bool)
    cumulative: dict[int, int] = {}
    for k, c, s, m in zip(rank.tolist(), country[rank].tolist(), source[rank].tolist(), mass[rank].tolist()):
        code, name = events.countries[c], events.sources[s]
        if cumulative.get(c, 0) < share * int(total[c]):  # the threshold is not reached yet
            retained.setdefault(code, set()).add(name)
            kept[k] = True
        cumulative[c] = cumulative.get(c, 0) + m
        rankings.setdefault(code, []).append((name, m))
    keep = np.empty(len(events), dtype=bool)
    users_before = users_after = 0
    for lo, hi in blocks:
        keep[lo:hi] = kept[np.searchsorted(pairs, keys(lo, hi))]  # every key is one of the pairs
        users_before += len(runs(events.user[lo:hi])) - 1
        users_after += len(runs(events.user[lo:hi][keep[lo:hi]])) - 1
    stats = CleaningStats(rankings, users_before, users_after, len(events), int(np.count_nonzero(keep)))
    return retained, keep, stats
