"""Mobility measures: gyration radii, displacements, per-country mobility
profiles, and daily abroad-activity series.

All geometry is spherical. Gyration centers are columns over all users, with
libm's arctangents, hypotenuses and roots (numpy's bits differ). Daily series
count users per country and UTC day of one analysis year, both directions in
one block pass; the metrics stage scales each country's busiest day to 100.
"""

from __future__ import annotations

import calendar
import math
from datetime import datetime, timezone
from typing import Any

import numpy as np

from . import ingest
from .ingest import EventTable, runs
from .residence import UserTable
from .sphere import haversine_many


def _run_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum over the last axis of each run offsets[k]:offsets[k + 1], left to right from 0.0 as a loop adds.

    Array step j adds value j of every run longer than j; runs still longer after the last step are each
    finished by one cumsum (in order too). Steps are as many as minimize steps + runs finished alone."""
    lengths = np.diff(offsets)
    by_length = np.argsort(-lengths, kind="stable")
    longer = np.searchsorted(-lengths[by_length], -np.arange(lengths.max(initial=0) + 1))  # runs longer than j
    steps = int(np.argmin(np.arange(len(longer)) + longer))
    starts = offsets[by_length]
    sums = np.zeros(values.shape[:-1] + lengths.shape)  # run by_length[i] in column i: longer runs first
    for j, m in enumerate(longer[:steps].tolist()):
        sums[..., :m] += values[..., starts[:m] + j]
    for i, k in enumerate(by_length[: longer[steps]].tolist()):
        tail = values[..., offsets[k] + steps : offsets[k + 1]]
        sums[..., i] = np.cumsum(np.concatenate((sums[..., i : i + 1], tail), axis=-1), axis=-1)[..., -1]
    out = np.empty_like(sums)
    out[..., by_length] = sums
    return out


def user_gyration_radii(events: EventTable) -> np.ndarray:
    """Per-user radius of gyration by user code (NaN for a user with no event): RMS great-circle distance of
    every event from the center of mass.

    The rows are in trajectory order (ingest.build_trajectories), as the
    clean stage writes them, and each user's sums run in it. A user whose
    events share one point gets 0; when antipodal cancellation leaves the
    center undefined, the user's first event is the anchor. Users come in id
    order, in groups of whole users about 4 * ingest.BLOCK_ROWS rows long,
    which bounds the transients: longer than other blocks, as each group pays
    a loop over the steps of its longest trajectories.
    """
    radii = np.full(len(events.users), np.nan)
    cuts = ingest.user_blocks(events.user, ingest.BLOCK_ROWS << 2)
    for lo, hi in zip(cuts, cuts[1:]):
        offsets = runs(events.user[lo:hi])
        radii[events.user[lo:hi][offsets[:-1]]] = _gyration(events.lat[lo:hi], events.lon[lo:hi], offsets)
    return radii


def _gyration(lat: np.ndarray, lon: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The radius of each run of rows offsets[k]:offsets[k + 1], one user's rows in trajectory order. The center
    is the 3-D mean projected onto the sphere, where the run moved and the mean's norm is not below 1e-12."""
    first, n = offsets[:-1], np.diff(offsets)
    run = np.repeat(np.arange(len(n)), n)
    phi, lam = np.radians(lat), np.radians(lon)
    sums = _run_sums(np.stack((np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi))), offsets)
    moved = np.bincount(run[(lat != lat[first][run]) | (lon != lon[first][run])], minlength=len(n)) > 0
    mx, my, mz = sums / n
    defined = np.flatnonzero(moved & ~(np.sqrt(mx * mx + my * my + mz * mz) < 1e-12))
    x, y, z = mx[defined], my[defined], mz[defined]
    center_lat, center_lon = lat[first], lon[first]  # the anchor unless the center is defined
    center_lat[defined] = _libm(math.atan2, z, _libm(math.hypot, x, y)) * (180.0 / math.pi)  # math.degrees' product
    east = _libm(math.atan2, y, x) * (180.0 / math.pi)
    center_lon[defined] = np.where(east == -180.0, 180.0, east)  # normalize_lon's one change to an arctangent
    d = haversine_many(lat, lon, center_lat[run], center_lon[run])
    roots = _libm(pow, _run_sums(d * d, offsets) / n, np.full(len(n), 0.5))  # pow, not np.sqrt: repr's bits
    return np.where(moved, roots, 0.0)


def _libm(f, *columns: np.ndarray) -> np.ndarray:
    """f of each row of the float64 columns, a Python float of each at a time: libm's bits, not numpy's."""
    return np.fromiter(map(f, *map(memoryview, columns)), np.float64, len(columns[0]))


def displacements(events: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """User and great-circle distance of each consecutive pair of one user's events, over rows in trajectory
    order (ingest.build_trajectories) as the clean stage writes them.

    The distances are taken ingest.BLOCK_ROWS rows at a time, into one float64 array."""
    lat, lon, same = events.lat, events.lon, events.user[1:] == events.user[:-1]
    km = np.empty(np.count_nonzero(same))
    done = 0
    for start in range(0, len(same), ingest.BLOCK_ROWS):
        pair = start + np.flatnonzero(same[start : start + ingest.BLOCK_ROWS])
        km[done : done + len(pair)] = haversine_many(lat[pair], lon[pair], lat[pair + 1], lon[pair + 1])
        done += len(pair)
    return events.user[:-1][same], km


def build_mobility_profiles(
    profiles: UserTable,
    radii: np.ndarray,
    gyration_over: str = "all",
) -> dict[str, list[Any]]:
    """The columns of mobility_profiles.csv: a row per residence country, in code order.

    mean_radius_km averages the gyration radii by user code (as from
    user_gyration_radii) over all residents, or over mobile residents (seen
    in two countries or more) only when gyration_over="mobile", adding them
    in user code order (0 when the selected set is empty). countries_visited
    counts the distinct countries other than it that its residents saw.
    """
    if gyration_over not in ("all", "mobile"):
        raise ValueError(f"gyration_over must be 'all' or 'mobile', got {gyration_over!r}")
    n = len(profiles.countries)
    home, mobile = profiles.residence, profiles.distinct_countries >= 2
    pool = np.flatnonzero(home >= 0 if gyration_over == "all" else mobile)
    pool = pool[np.argsort(home[pool], kind="stable")]  # by residence, in user code order within each
    size = np.bincount(home[pool], minlength=n)
    sums = _run_sums(radii[pool], np.r_[0, np.cumsum(size)])
    residents = np.bincount(home[home >= 0], minlength=n)
    rows = np.flatnonzero(residents)
    residents, n_mobile, size, sums, visited = (column[rows].tolist() for column in (
        residents, np.bincount(home[mobile], minlength=n), size, sums, np.bincount(profiles.flows()[0], minlength=n)))
    return dict(code=[profiles.countries[c] for c in rows.tolist()], n_residents=residents,
                mobility_rate=[m / r for m, r in zip(n_mobile, residents)],
                mean_radius_km=[total / k if k else 0.0 for total, k in zip(sums, size)], countries_visited=visited)


def daily_abroad_series(
    profiles: UserTable, events: EventTable, year: int = 2012
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Per-country daily counts of users active outside their residence: the series countries, in code order,
    and the outbound and inbound counts as int64 arrays, a row per country and a column per UTC calendar day.

    Outbound series of C: distinct residents of C with at least one event
    outside C that day. Inbound series of C: distinct non-residents with at
    least one event in C that day. Users are counted once per day however
    many qualifying events they post. Events outside the year, and of users
    without a residence, are ignored, and inbound ones in a country with no
    series (no profile covers it). The profiles are over the events' vocabularies.
    """
    if np.any(events.country < 0):
        raise ValueError("every event needs a country label")
    if profiles.users != events.users or profiles.countries != events.countries:
        raise ValueError("the profiles are over other user or country vocabularies than the events")
    n_days = 366 if calendar.isleap(year) else 365
    year_start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    seen = np.bincount(profiles.country, minlength=len(profiles.countries)) > 0
    domain = [profiles.countries[c] for c in np.flatnonzero(seen).tolist()]
    here_of = np.where(seen, np.cumsum(seen) - 1, -1)  # position in domain by country code
    home_of = np.r_[here_of, -1][profiles.residence]  # a residence of -1 reads the -1 after the countries
    n_users = len(events.users)
    keys = ([np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)])  # outbound, inbound: (country, day, user)
    for start in range(0, len(events), ingest.BLOCK_ROWS):
        rows = slice(start, start + ingest.BLOCK_ROWS)
        user = events.user[rows]
        home, here = home_of[user], here_of[events.country[rows]]
        day = (events.timestamp[rows] - year_start) // 86400
        away = (home >= 0) & (here != home) & (0 <= day) & (day < n_days)
        for out, series_row in zip(keys, (home, here)):  # a series row of -1: a country with no series
            mask = away & (series_row >= 0)
            out.append(np.unique((series_row * n_days + day)[mask] * n_users + user[mask], return_counts=True)[0])
    cells = (np.unique(np.concatenate(out), return_counts=True)[0] // n_users for out in keys)  # a cell per user-day
    outbound, inbound = (np.bincount(cell, minlength=len(domain) * n_days).reshape(-1, n_days) for cell in cells)
    return domain, outbound, inbound
