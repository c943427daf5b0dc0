"""Residence assignment and per-country penetration statistics.

A user's residence is the country holding the plurality of their events;
a tie goes to the country seen first, then to code order. Country
statistics relate resident counts to census populations and flag
countries that clear the inclusion thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ingest import EventTable, runs


@dataclass(slots=True)
class UserTable:
    """Per-user event footprints as columns over an event table's `users` and `countries` vocabularies.

    Per user code: the residence's country code (-1 for a user with no event), the event count and the
    number of distinct countries. Per distinct (user, country) pair, in code order: the two codes."""

    users: list[str]
    countries: list[str]
    residence: np.ndarray
    total_events: np.ndarray
    distinct_countries: np.ndarray
    user: np.ndarray
    country: np.ndarray

    def flows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each distinct (residence, visited) pair with visited != residence, in code order, and its user count."""
        n = len(self.countries)
        home = self.residence[self.user].astype(np.int64)
        away = home != self.country
        keys, users = np.unique(home[away] * n + self.country[away], return_counts=True)
        return keys // n, keys % n, users


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


def build_profiles(events: EventTable) -> UserTable:
    """The UserTable of labeled events, over their vocabularies."""
    if np.any(events.country < 0):
        raise ValueError("every event needs a country label")
    order = np.lexsort((events.timestamp, events.country, events.user))
    offsets = runs(events.user[order], events.country[order])
    first = order[offsets[:-1]]  # each (user, country)'s earliest event
    user, country = events.user[first], events.country[first]
    best = np.lexsort((country, events.timestamp[first], -np.diff(offsets), user))
    best = best[runs(user[best])[:-1]]  # each user's pair by (most events, first seen, code)
    n = len(events.users)
    residence = np.full(n, -1, dtype=events.country.dtype)
    residence[user[best]] = country[best]
    totals = np.bincount(events.user, minlength=n), np.bincount(user, minlength=n)  # events, countries
    return UserTable(events.users, events.countries, residence, *totals, user, country)


def compute_country_stats(
    profiles: UserTable,
    census: Mapping[str, int],
    gdp_per_capita: Mapping[str, float] | None = None,
    min_penetration: float = 0.0005,
    min_residents: int = 10_000,
) -> dict[str, CountryStats]:
    """Penetration and inclusion flags for every country seen in any profile, in code order.

    Covers both residence countries and visited-only countries (the latter
    have zero residents and are naturally excluded). Countries missing from
    the census, or with nonpositive population, are excluded with a reason.
    """
    n = len(profiles.countries)
    seen = np.flatnonzero(np.bincount(profiles.country, minlength=n))
    residents = np.bincount(profiles.residence[profiles.residence >= 0], minlength=n)
    out: dict[str, CountryStats] = {}
    for c, n_res in zip(seen.tolist(), residents[seen].tolist()):
        code = profiles.countries[c]
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
