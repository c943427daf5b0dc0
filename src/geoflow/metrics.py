"""Mobility measures: mobile-user flags, gyration radii, displacements,
destination diversity, and daily abroad-activity series.

All geometry is spherical. Daily series use UTC calendar days of a single
analysis year and are normalized so the busiest day reads 100.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

from . import ingest
from .ingest import EventTable, _in_trajectory_order, build_trajectories, runs
from .residence import UserProfile
from .sphere import DegenerateCenterError, haversine_many, mean_center


def is_mobile(profile: UserProfile) -> bool:
    """True iff the user was seen in a country other than their residence."""
    return profile.distinct_countries >= 2


def _run_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum over the last axis of each run offsets[k]:offsets[k + 1], left to right from 0.0 as a loop adds.

    Array step j adds value j of every run longer than j; runs still longer after the last step are each
    finished by one cumsum (in order too). Steps are as many as minimize steps + runs finished alone."""
    lengths = np.diff(offsets)
    by_length = np.argsort(-lengths, kind="stable")
    longer = np.searchsorted(-lengths[by_length], -np.arange(lengths.max(initial=0) + 1))  # runs longer than j
    steps = int(np.argmin(np.arange(len(longer)) + longer))
    sums = np.zeros(values.shape[:-1] + lengths.shape)
    for j, m in enumerate(longer[:steps].tolist()):
        sums[..., by_length[:m]] += values[..., offsets[by_length[:m]] + j]
    for k in by_length[: longer[steps]].tolist():
        tail = values[..., offsets[k] + steps : offsets[k + 1]]
        sums[..., k] = np.cumsum(np.concatenate((sums[..., k : k + 1], tail), axis=-1), axis=-1)[..., -1]
    return sums


def user_gyration_radii(events: EventTable) -> dict[str, float]:
    """Per-user radius of gyration: RMS great-circle distance of every event from the center of mass.

    Each user's sums run in trajectory order (ingest.build_trajectories),
    whatever the order of the rows. A user whose events share one point
    gets 0; when antipodal cancellation leaves the center undefined, the
    user's first event is the anchor. Users come in id order, in groups of
    whole users about 16 * ingest.BLOCK_ROWS rows long, which bounds the
    transients: longer than other blocks, as each group pays a loop over the
    steps of its longest trajectories.
    """
    t = events if _in_trajectory_order(events) else events.take(build_trajectories(events))
    offsets = runs(t.user)
    block_users = np.searchsorted(offsets, np.arange(0, len(t), ingest.BLOCK_ROWS << 4), side="right") - 1
    groups = np.unique(block_users).tolist() + [len(offsets) - 1]  # group: users groups[i]:groups[i + 1]
    radii: dict[str, float] = {}
    for a, b in zip(groups, groups[1:]):
        lo, hi = offsets[a], offsets[b]
        radii.update(_gyration(t.users, t.user[lo:hi], t.lat[lo:hi], t.lon[lo:hi], offsets[a : b + 1] - lo))
    return radii


def _gyration(
    users: list[str], user: np.ndarray, lat: np.ndarray, lon: np.ndarray, offsets: np.ndarray
) -> dict[str, float]:
    """user_gyration_radii of rows in trajectory order, whose users' runs are rows offsets[k]:offsets[k + 1]."""
    first, n = offsets[:-1], np.diff(offsets)
    run = np.repeat(np.arange(len(n)), n)
    phi, lam = np.radians(lat), np.radians(lon)
    sums = _run_sums(np.stack((np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi))), offsets)
    moved = np.bincount(run[(lat != lat[first][run]) | (lon != lon[first][run])], minlength=len(n)) > 0
    center_lat, center_lon = lat[first], lon[first]  # the anchor unless the center is defined
    for k in np.flatnonzero(moved).tolist():
        try:
            center_lat[k], center_lon[k] = mean_center(*sums[:, k].tolist(), int(n[k]))
        except DegenerateCenterError:
            pass
    d = haversine_many(lat, lon, center_lat[run], center_lon[run])
    totals = zip(user[first].tolist(), _run_sums(d * d, offsets).tolist(), n.tolist(), moved.tolist())
    return {users[u]: (total / count) ** 0.5 if m else 0.0 for u, total, count, m in totals}


def displacements(events: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """User and great-circle distance of each consecutive pair of one user's events, in trajectory order.

    The distances are taken ingest.BLOCK_ROWS rows at a time, into one float64 array."""
    t = events if _in_trajectory_order(events) else events.take(build_trajectories(events))
    same = t.user[1:] == t.user[:-1]
    km = np.empty(np.count_nonzero(same))
    done = 0
    for start in range(0, len(same), ingest.BLOCK_ROWS):
        pair = start + np.flatnonzero(same[start : start + ingest.BLOCK_ROWS])
        km[done : done + len(pair)] = haversine_many(t.lat[pair], t.lon[pair], t.lat[pair + 1], t.lon[pair + 1])
        done += len(pair)
    return t.user[:-1][same], km


def destination_diversity(country: str, profiles: Mapping[str, UserProfile]) -> int:
    """Distinct foreign countries appearing in any resident's event counts."""
    visited: set[str] = set()
    for profile in profiles.values():
        if profile.residence == country:
            visited.update(c for c in profile.counts if c != country)
    return len(visited)


@dataclass(slots=True)
class MobilityProfile:
    """Country-level mobility summary."""

    code: str
    n_residents: int
    mobility_rate: float
    mean_radius_km: float
    countries_visited: int


def build_mobility_profiles(
    profiles: Mapping[str, UserProfile],
    radii: Mapping[str, float],
    gyration_over: str = "all",
) -> dict[str, MobilityProfile]:
    """One MobilityProfile per residence country.

    mean_radius_km averages the per-user gyration radii (as from
    user_gyration_radii) over all residents, or over mobile residents only
    when gyration_over="mobile" (0 when the selected set is empty).
    """
    if gyration_over not in ("all", "mobile"):
        raise ValueError(f"gyration_over must be 'all' or 'mobile', got {gyration_over!r}")
    by_country: dict[str, list[UserProfile]] = {}
    for profile in profiles.values():
        by_country.setdefault(profile.residence, []).append(profile)
    out: dict[str, MobilityProfile] = {}
    for code in sorted(by_country):
        residents = by_country[code]
        mobile = [p for p in residents if is_mobile(p)]
        pool = residents if gyration_over == "all" else mobile
        sample = [radii[p.user_id] for p in pool if p.user_id in radii]
        out[code] = MobilityProfile(
            code=code,
            n_residents=len(residents),
            mobility_rate=len(mobile) / len(residents),
            mean_radius_km=sum(sample) / len(sample) if sample else 0.0,
            countries_visited=destination_diversity(code, dict(enumerate(residents))),
        )
    return out


@dataclass(slots=True)
class DailySeries:
    """Daily distinct-user counts for one country and direction."""

    code: str
    direction: str  # "outbound" (residents abroad) or "inbound" (visitors here)
    year: int
    values: list[int]  # one count per UTC calendar day of the year
    normalized: list[float]  # values scaled so max reads 100 (all-zero stays zero)


def _normalize(values: list[int]) -> list[float]:
    peak = max(values) if values else 0
    if peak == 0:
        return [0.0 for _ in values]
    return [100.0 * v / peak for v in values]


def daily_abroad_series(
    profiles: Mapping[str, UserProfile],
    events: EventTable,
    direction: str,
    year: int = 2012,
) -> dict[str, DailySeries]:
    """Per-country daily counts of users active outside their residence.

    Outbound series of C: distinct residents of C with at least one event
    outside C that day. Inbound series of C: distinct non-residents with at
    least one event in C that day. Users are counted once per day however
    many qualifying events they post. Events outside the year, and of users
    without a profile, are ignored; profiles built from the events cover all their countries.
    """
    if direction not in ("outbound", "inbound"):
        raise ValueError(f"direction must be 'outbound' or 'inbound', got {direction!r}")
    if np.any(events.country < 0):
        raise ValueError("every event needs a country label")
    n_days = 366 if calendar.isleap(year) else 365
    year_start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    domain = sorted(set().union(*(profile.counts for profile in profiles.values())))
    position = {code: i for i, code in enumerate(domain)}
    home_of = np.array([position[p.residence] if (p := profiles.get(u)) else -1 for u in events.users], np.int64)
    here_of = np.array([position.get(code, -1) for code in events.countries], dtype=np.int64)
    keys = [np.zeros(0, dtype=np.int64)]  # one per (country, day, user), a block of rows at a time
    for start in range(0, len(events), ingest.BLOCK_ROWS):
        rows = slice(start, start + ingest.BLOCK_ROWS)
        user = events.user[rows]
        home, here = home_of[user], here_of[events.country[rows]]
        day = (events.timestamp[rows] - year_start) // 86400
        mask = (home >= 0) & (here != home) & (0 <= day) & (day < n_days)
        cell = ((home if direction == "outbound" else here) * n_days + day)[mask]
        keys.append(np.unique(cell * len(events.users) + user[mask]))
    distinct = np.unique(np.concatenate(keys))
    values = np.bincount(distinct // len(events.users), minlength=len(domain) * n_days)
    out: dict[str, DailySeries] = {}
    for code, row in zip(domain, values.reshape(len(domain), n_days).tolist()):
        out[code] = DailySeries(code=code, direction=direction, year=year, values=row, normalized=_normalize(row))
    return out
