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

from . import ingest
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
    """The UserTable of labeled events, over their vocabularies.

    The rows are in trajectory order (ingest.build_trajectories), as the clean stage sorts them, so each
    (user, country) pair's first row is its earliest event. They are read in blocks of whole users about
    ingest.BLOCK_ROWS rows long."""
    if np.any(events.country < 0):
        raise ValueError("every event needs a country label")
    n = len(events.users)
    residence = np.full(n, -1, dtype=events.country.dtype)
    totals = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)  # events, countries
    pairs = [(events.user[:0], events.country[:0])]
    cuts = ingest.user_blocks(events.user, ingest.BLOCK_ROWS)
    for lo, hi in zip(cuts, cuts[1:]):
        user, country = events.user[lo:hi], events.country[lo:hi]
        key = (user - user[0]).astype(np.int64) * len(events.countries) + country
        _, first, count = np.unique(key, return_index=True, return_counts=True)  # each (user, country), in code order
        user, country = user[first], country[first]
        best = np.lexsort((country, events.timestamp[lo:hi][first], -count, user))
        best = best[runs(user[best])[:-1]]  # each user's pair by (most events, first seen, code)
        residence[user[best]] = country[best]
        np.add.at(totals[0], user, count)
        np.add.at(totals[1], user, 1)
        pairs.append((user, country))
    user, country = (np.concatenate(column) for column in zip(*pairs))
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
