"""Residence assignment and per-country penetration statistics.

A user's residence is the country holding the plurality of their events;
a tie goes to the country seen first, then to code order. Country
statistics relate resident counts to census populations and flag
countries that clear the inclusion thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

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
) -> dict[str, list[Any]]:
    """The columns of country_stats.csv: penetration and inclusion for every country seen in any profile, in
    code order.

    Covers both residence countries and visited-only countries (the latter
    have zero residents and are naturally excluded). Countries missing from
    the census (no population, penetration 0), or with nonpositive population,
    are excluded with a reason; no GDP reads as None.
    """
    n = len(profiles.countries)
    seen = np.flatnonzero(np.bincount(profiles.country, minlength=n))
    code = [profiles.countries[c] for c in seen.tolist()]
    residents = np.bincount(profiles.residence[profiles.residence >= 0], minlength=n)[seen].tolist()
    population = [census.get(c) for c in code]
    penetration = [r / p if p is not None and p > 0 else 0.0 for r, p in zip(residents, population)]
    reason = ["; ".join(_exclusions(*row, min_penetration, min_residents))
              for row in zip(residents, population, penetration)]
    gdp = gdp_per_capita or {}
    return dict(code=code, residents=residents, population=population, penetration=penetration,
                included=[not r for r in reason], gdp_per_capita=[gdp.get(c) for c in code], reason=reason)


def _exclusions(
    residents: int, population: int | None, penetration: float, min_penetration: float, min_residents: int
) -> Iterator[str]:
    """Why a country with these counts is excluded: nothing for an included one."""
    if population is None:
        yield "no census"
    elif population <= 0:
        yield f"nonpositive population {population}"
    else:
        if penetration < min_penetration:
            yield f"penetration {penetration:.6g} below {min_penetration:.6g}"
        if residents < min_residents:
            yield f"residents {residents} below {min_residents}"
