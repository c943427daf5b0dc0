"""Two-stage event refinement: impossible-relocation removal, bot-source removal.

Stage one walks each user's trajectory and drops events implying travel
faster than a configurable speed cap. Stage two ranks event sources per
country by popularity and keeps only the sources that jointly cover a
target share of that country's source-usage mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ingest import GeoEvent, Trajectory
from .sphere import haversine_km

__all__ = [
    "speed_filter",
    "rank_sources",
    "source_popularity_filter",
    "apply_source_filter",
    "CleaningStats",
]


def speed_filter(trajectory: Trajectory, max_speed_kmh: float = 1000.0) -> tuple[Trajectory, int]:
    """Drop events implying speed strictly above max_speed_kmh.

    Sequential scan against the last retained event; the later event of an
    offending pair is dropped and the scan continues from the retained one.
    A zero time gap means infinite speed (drop) unless the distance is also
    zero (duplicate point, keep). The first event is always retained, so
    every retained consecutive pair satisfies the cap.
    """
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


@dataclass(slots=True)
class CleaningStats:
    """Survival accounting for the source-popularity filter."""

    retained_sources: dict[str, list[str]]  # country -> sources in rank order
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


def rank_sources(events: list[GeoEvent], weight_mode: str = "users") -> dict[str, list[tuple[str, int]]]:
    """Per-country source ranking by mass, heaviest first, ties by source name.

    Mass is distinct users per (country, source) in "users" mode, raw event
    counts in "events" mode. A user active through two sources in one
    country contributes to both masses.
    """
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
    """Keep, per country, the most popular sources covering `coverage` of mass.

    Walks each country's ranking accumulating mass and stops once the
    cumulative mass first reaches coverage times the country's total mass;
    the source that crosses the threshold is retained. Events whose
    (country, source) pair is not retained are discarded.

    The threshold comparison is exact: coverage is read as a decimal
    (0.95 means exactly 19/20), so a corpus built with an exact 95 percent
    split filters exactly, free of binary float rounding.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    rankings = rank_sources(events, weight_mode)
    share = Fraction(str(coverage))
    retained: dict[str, set[str]] = {}
    retained_ordered: dict[str, list[str]] = {}
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
        retained_ordered[country] = keep
        retained[country] = set(keep)
    filtered = apply_source_filter(events, retained)
    stats = CleaningStats(
        retained_sources=retained_ordered,
        rankings=rankings,
        users_before=len({e.user_id for e in events}),
        users_after=len({e.user_id for e in filtered}),
        events_before=len(events),
        events_after=len(filtered),
    )
    return retained, filtered, stats


def apply_source_filter(events: list[GeoEvent], retained: dict[str, set[str]]) -> list[GeoEvent]:
    """Drop events whose (country, source) is not in the frozen retained map.

    Idempotent by construction: the retained map does not change between
    applications. Countries absent from the map retain nothing.
    """
    out: list[GeoEvent] = []
    for event in events:
        if event.country is None:
            raise ValueError(f"event of user {event.user_id!r} has no country label")
        if event.source in retained.get(event.country, ()):
            out.append(event)
    return out
