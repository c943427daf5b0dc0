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

from .ingest import GeoEvent, Trajectory
from .residence import UserProfile
from .sphere import DegenerateCenterError, center_of_mass, haversine_km

__all__ = [
    "is_mobile",
    "mobility_rate",
    "radius_of_gyration",
    "user_gyration_radii",
    "displacements",
    "destination_diversity",
    "MobilityProfile",
    "build_mobility_profiles",
    "DailySeries",
    "daily_abroad_series",
]


def is_mobile(profile: UserProfile) -> bool:
    """True iff the user was seen in a country other than their residence."""
    return profile.distinct_countries >= 2


def mobility_rate(country: str, profiles: Mapping[str, UserProfile]) -> float:
    """Fraction of the country's residents that are mobile."""
    residents = [p for p in profiles.values() if p.residence == country]
    if not residents:
        raise ValueError(f"no residents in {country!r}")
    return sum(1 for p in residents if is_mobile(p)) / len(residents)


def radius_of_gyration(points: list[tuple[float, float]]) -> float:
    """Root-mean-square great-circle distance from the points' center of mass.

    Points carry multiplicity: every event counts, so duplicating all points
    changes nothing. Antipodal cancellation makes the center undefined; the
    first point then serves as the anchor.
    """
    if not points:
        raise ValueError("no points")
    if all(p == points[0] for p in points):
        return 0.0  # the center is the point itself; skip round-trip noise
    try:
        center = center_of_mass(points)
    except DegenerateCenterError:
        center = points[0]
    total = 0.0
    for p in points:
        d = haversine_km(p, center)
        total += d * d
    return (total / len(points)) ** 0.5


def user_gyration_radii(events: list[GeoEvent]) -> dict[str, float]:
    """Per-user radius of gyration over all of the user's event locations."""
    per_user: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        per_user.setdefault(event.user_id, []).append((event.lat, event.lon))
    return {uid: radius_of_gyration(pts) for uid, pts in sorted(per_user.items())}


def displacements(trajectory: Trajectory) -> list[float]:
    """Great-circle distances between consecutive events; empty for n <= 1."""
    evs = trajectory.events
    return [
        haversine_km((a.lat, a.lon), (b.lat, b.lon))
        for a, b in zip(evs, evs[1:])
    ]


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
    events: list[GeoEvent],
    direction: str,
    year: int = 2012,
) -> dict[str, DailySeries]:
    """Per-country daily counts of users active outside their residence.

    Outbound series of C: distinct residents of C with at least one event
    outside C that day. Inbound series of C: distinct non-residents with at
    least one event in C that day. Users are counted once per day however
    many qualifying events they post. Events outside the year are ignored.
    """
    if direction not in ("outbound", "inbound"):
        raise ValueError(f"direction must be 'outbound' or 'inbound', got {direction!r}")
    n_days = 366 if calendar.isleap(year) else 365
    start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    domain: set[str] = set()
    for profile in profiles.values():
        domain.update(profile.counts)
    daily: dict[str, list[set[str]]] = {c: [set() for _ in range(n_days)] for c in sorted(domain)}
    for event in events:
        if event.country is None:
            raise ValueError(f"event of user {event.user_id!r} has no country label")
        profile = profiles.get(event.user_id)
        if profile is None or event.country == profile.residence:
            continue
        day = (event.timestamp - start) // 86400
        if not 0 <= day < n_days:
            continue
        key = profile.residence if direction == "outbound" else event.country
        daily[key][day].add(event.user_id)
    out: dict[str, DailySeries] = {}
    for code, sets in daily.items():
        values = [len(s) for s in sets]
        out[code] = DailySeries(
            code=code,
            direction=direction,
            year=year,
            values=values,
            normalized=_normalize(values),
        )
    return out
