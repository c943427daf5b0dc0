"""Residence assignment and per-country penetration statistics.

A user's residence is the country holding the plurality of their events.
Country statistics relate resident counts to census populations and flag
countries that clear the inclusion thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ingest import EventTable, runs


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


@dataclass(slots=True)
class CountryStats:
    """Residents vs census population, with inclusion verdict."""

    code: str
    residents: int
    population: int | None
    penetration: float  # residents / population, 0 when population unknown
    included: bool
    gdp_per_capita: float | None = None
    reason: str = ""  # empty when included


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


def build_profiles(events: EventTable) -> dict[str, UserProfile]:
    """Aggregate labeled events into per-user profiles with residence assigned, in user id order."""
    if np.any(events.country < 0):
        raise ValueError("every event needs a country label")
    order = np.lexsort((events.timestamp, events.country, events.user))
    offsets = runs(events.user[order], events.country[order])
    first = order[offsets[:-1]]  # each (user, country)'s earliest event
    counts: dict[str, dict[str, int]] = {}
    first_seen: dict[str, dict[str, int]] = {}
    columns = (events.user[first], events.country[first], np.diff(offsets), events.timestamp[first])
    for u, c, n, ts in zip(*(column.tolist() for column in columns)):
        counts.setdefault(events.users[u], {})[events.countries[c]] = n
        first_seen.setdefault(events.users[u], {})[events.countries[c]] = ts
    return {u: UserProfile(u, c, first_seen[u], assign_residence(c, first_seen[u]), len(c)) for u, c in counts.items()}


def compute_country_stats(
    profiles: Mapping[str, UserProfile],
    census: Mapping[str, int],
    gdp_per_capita: Mapping[str, float] | None = None,
    min_penetration: float = 0.0005,
    min_residents: int = 10_000,
) -> dict[str, CountryStats]:
    """Penetration and inclusion flags for every country seen in any profile.

    Covers both residence countries and visited-only countries (the latter
    have zero residents and are naturally excluded). Countries missing from
    the census, or with nonpositive population, are excluded with a reason.
    """
    residents: dict[str, int] = {}
    seen: set[str] = set()
    for profile in profiles.values():
        seen.update(profile.counts)
        residents[profile.residence] = residents.get(profile.residence, 0) + 1
    out: dict[str, CountryStats] = {}
    for code in sorted(seen):
        n_res = residents.get(code, 0)
        population = census.get(code)
        gdp = gdp_per_capita.get(code) if gdp_per_capita else None
        reasons: list[str] = []
        penetration = 0.0
        if population is None:
            reasons.append("no census")
            population_field = None
        elif population <= 0:
            reasons.append(f"nonpositive population {population}")
            population_field = population
        else:
            population_field = population
            penetration = n_res / population
            if penetration < min_penetration:
                reasons.append(f"penetration {penetration:.6g} below {min_penetration:.6g}")
            if n_res < min_residents:
                reasons.append(f"residents {n_res} below {min_residents}")
        out[code] = CountryStats(
            code=code,
            residents=n_res,
            population=population_field,
            penetration=penetration,
            included=not reasons,
            gdp_per_capita=gdp,
            reason="; ".join(reasons),
        )
    return out
