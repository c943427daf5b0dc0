"""Seeded synthetic-world generation: planted flows, events, and truth.

Everything here is an oracle for tests and demos. A world plants country
populations, capitals, penetrations, block structure, and gravity
parameters; the generator turns it into an event stream whose residences,
mobility, source mix, and flow structure are known exactly.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .ingest import CountryBoundary, GeoEvent
from .models import capital_distances
from .sphere import haversine_km

SECONDS_PER_HOUR = 3600
# Minimum inter-event spacing grows with the hop distance so implied speeds
# stay under 900 km/h and the cleaning stage never drops a planted event.
SECONDS_PER_KM = 4
MAX_EXTRA_GAP = 432_000  # up to five slack days between events
HUMAN_SOURCES = ("app_web", "app_mobile", "app_tablet")
# Round-robin pattern over 20 users: 60% web, 25% mobile, 15% tablet.
_SOURCE_PATTERN = (0,) * 12 + (1,) * 5 + (2,) * 3
# Most events a mobile user posts abroad (also capped below half their events).
_MAX_FOREIGN_EVENTS = 5
KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQ = 111.320


@dataclass(slots=True)
class SynthCountry:
    code: str
    population: int
    capital: tuple[float, float]  # lat, lon
    penetration: float  # planted platform penetration, in (0, 1]
    block: int = 0


@dataclass(slots=True)
class SynthWorld:
    countries: list[SynthCountry]
    A: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    block_boost: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        codes = [c.code for c in self.countries]
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate country codes")
        for c in self.countries:
            if c.population <= 0:
                raise ValueError(f"{c.code}: population must be positive")
            if not 0.0 < c.penetration <= 1.0:
                raise ValueError(f"{c.code}: penetration must be in (0, 1]")
        if self.block_boost < 1.0:
            raise ValueError("block_boost must be >= 1")

    def by_code(self) -> dict[str, SynthCountry]:
        return {c.code: c for c in self.countries}


@dataclass(slots=True)
class SynthTruth:
    """Ground truth recorded while generating an event stream."""

    residences: dict[str, str]  # user -> planted residence
    bots: list[str]  # user ids carrying planted bot sources
    sources: dict[str, str]  # user -> source
    planted_mobility: dict[str, float]  # country -> mobile probability
    realized_mobile: dict[str, int]  # country -> users actually made mobile
    realized_edges: dict[tuple[str, str], int]  # distinct mobile users per edge
    n_users: dict[str, int]  # planted users per country (bots included)
    n_humans: dict[str, int] = field(default_factory=dict)


def expected_flows(world: SynthWorld) -> dict[tuple[str, str], float]:
    """Planted pairwise flows: A * p_i^alpha * p_j^beta / r_ij^gamma.

    Intra-block pairs are multiplied by block_boost. The diagonal is
    absent; capitals closer than 1 km make the distance term meaningless
    and are rejected.
    """
    by_code = world.by_code()
    distances = capital_distances({c.code: c.capital for c in world.countries})
    flows: dict[tuple[str, str], float] = {}
    for i in sorted(by_code):
        for j in sorted(by_code):
            if i == j:
                continue
            r = distances[(i, j)]
            if r < 1.0:
                raise ValueError(f"capitals of {i} and {j} nearly coincide ({r:.3f} km)")
            ci, cj = by_code[i], by_code[j]
            f = world.A * ci.population**world.alpha * cj.population**world.beta / r**world.gamma
            if ci.block == cj.block:
                f *= world.block_boost
            flows[(i, j)] = f
    return flows


def sample_power_law(seed: int, exponent: float, xmin: float, xmax: float, n: int) -> list[float]:
    """Inverse-CDF samples of a power law truncated to [xmin, xmax].

    x = (xmin^(1-b) + u * (xmax^(1-b) - xmin^(1-b)))^(1/(1-b)) for uniform
    u in [0, 1): u = 0 gives xmin and u -> 1 approaches xmax.
    """
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    if not 0.0 < xmin < xmax:
        raise ValueError(f"need 0 < xmin < xmax, got {xmin}, {xmax}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    one_minus = 1.0 - exponent
    lo = xmin**one_minus
    hi = xmax**one_minus
    return ((lo + u * (hi - lo)) ** (1.0 / one_minus)).tolist()


def _jitter(rng: np.random.Generator, capital: tuple[float, float], n: int, sigma_km: float = 15.0, cap_km: float = 50.0) -> list[tuple[float, float]]:
    """n points Gaussian-scattered around a capital, clamped to cap_km."""
    lat0, lon0 = capital
    offsets = rng.normal(0.0, sigma_km, size=(n, 2))  # east, north in km
    points: list[tuple[float, float]] = []
    coslat = math.cos(math.radians(lat0))
    for east, north in offsets:
        east, north = float(east), float(north)
        norm = math.hypot(east, north)
        if norm > cap_km:
            east *= cap_km / norm
            north *= cap_km / norm
        lat = lat0 + north / KM_PER_DEG_LAT
        lon = lon0 + east / (KM_PER_DEG_LON_EQ * coslat)
        points.append((lat, lon))
    return points


def _min_gap_seconds(d_km: float) -> int:
    return SECONDS_PER_HOUR + SECONDS_PER_KM * math.ceil(d_km)


def _schedule(rng: np.random.Generator, hops_km: list[float], year_start: int, year_seconds: int) -> list[int]:
    """Strictly increasing in-year timestamps with speed-safe minimum gaps.

    Works backward from a reserve: at every step the remaining minimum gaps
    must still fit before year end, so random slack never pushes the tail
    out of the year.
    """
    min_gaps = [_min_gap_seconds(d) for d in hops_km]
    suffix = [0] * (len(min_gaps) + 1)
    for k in range(len(min_gaps) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + min_gaps[k]
    latest_start = year_seconds - suffix[0] - 1
    if latest_start < 0:
        raise ValueError("events do not fit inside the year at safe spacing")
    t = year_start + int(rng.integers(0, latest_start + 1))
    times = [t]
    year_end = year_start + year_seconds - 1
    extras = rng.integers(0, MAX_EXTRA_GAP + 1, size=len(min_gaps))
    for k, gap in enumerate(min_gaps):
        t = min(t + gap + int(extras[k]), year_end - suffix[k + 1])
        times.append(t)
    return times


def generate_events(
    world: SynthWorld,
    users_per_country: int,
    events_per_user: int,
    trip_rate: float,
    bot_fraction: float = 0.05,
    year: int = 2012,
) -> tuple[list[GeoEvent], SynthTruth]:
    """Seeded event stream with planted residences, sources, and flows.

    Per user: a home country, one source, and events_per_user events. A
    human user turns mobile with probability trip_rate scaled by their
    country's share of planted outflow mass, picks one destination from
    the planted flow row, and posts a small block of events there; home
    events always outnumber foreign ones, so the plurality residence rule
    provably recovers the planted residence. The last floor(bot_fraction *
    users) users of each country carry unique bot sources (and stay home).
    Timestamps are strictly increasing, in-year, and too slow to trip the
    speed filter. Each user draws from an independent (seed, user index)
    stream, so output is identical however generation is distributed.
    """
    if not 0.0 <= trip_rate <= 1.0:
        raise ValueError(f"trip_rate must be in [0, 1], got {trip_rate}")
    if not 0.0 <= bot_fraction < 1.0:
        raise ValueError(f"bot_fraction must be in [0, 1), got {bot_fraction}")
    if users_per_country < 1 or events_per_user < 1:
        raise ValueError("need at least one user and one event")
    year_start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    year_seconds = (366 if calendar.isleap(year) else 365) * 86400
    flows = expected_flows(world) if len(world.countries) > 1 else {}
    codes = sorted(c.code for c in world.countries)
    by_code = world.by_code()
    row_mass = {
        c: math.fsum(flows.get((c, d), 0.0) for d in codes if d != c) for c in codes
    }
    max_row = max(row_mass.values()) if row_mass else 0.0
    max_foreign = max(0, min(_MAX_FOREIGN_EVENTS, (events_per_user - 1) // 2))
    n_bots = int(bot_fraction * users_per_country)
    planted_mobility: dict[str, float] = {}
    for c in codes:
        p = trip_rate * row_mass[c] / max_row if max_row > 0.0 else 0.0
        planted_mobility[c] = p if max_foreign >= 1 else 0.0

    events: list[GeoEvent] = []
    truth = SynthTruth(
        residences={},
        bots=[],
        sources={},
        planted_mobility=planted_mobility,
        realized_mobile={c: 0 for c in codes},
        realized_edges={},
        n_users={c: users_per_country for c in codes},
        n_humans={c: users_per_country - n_bots for c in codes},
    )
    user_index = 0
    for pos, code in enumerate(codes):
        country = by_code[code]
        dests = [d for d in codes if d != code]
        probs: list[float] = []
        if dests and row_mass[code] > 0.0:
            probs = [flows[(code, d)] / row_mass[code] for d in dests]
        for k in range(users_per_country):
            rng = np.random.default_rng([world.seed, user_index])
            user_id = f"u{user_index:06d}"
            user_index += 1
            is_bot = k >= users_per_country - n_bots
            if is_bot:
                source = f"bot_{code}_{k:04d}"
                truth.bots.append(user_id)
            else:
                source = HUMAN_SOURCES[_SOURCE_PATTERN[k % len(_SOURCE_PATTERN)]]
            truth.residences[user_id] = code
            truth.sources[user_id] = source

            destination: str | None = None
            n_foreign = 0
            if not is_bot and probs and planted_mobility[code] > 0.0:
                if rng.random() < planted_mobility[code]:
                    destination = dests[int(rng.choice(len(dests), p=probs))]
                    n_foreign = int(rng.integers(1, max_foreign + 1))
            if destination is not None:
                truth.realized_mobile[code] += 1
                edge = (code, destination)
                truth.realized_edges[edge] = truth.realized_edges.get(edge, 0) + 1

            n_home = events_per_user - n_foreign
            trip_after = int(rng.integers(1, n_home + 1)) if n_foreign else n_home
            home_points = _jitter(rng, country.capital, n_home)
            if n_foreign:
                away_points = _jitter(rng, by_code[destination].capital, n_foreign)
                points = home_points[:trip_after] + away_points + home_points[trip_after:]
            else:
                points = home_points
            hops = [haversine_km(points[i], points[i + 1]) for i in range(len(points) - 1)]
            times = _schedule(rng, hops, year_start, year_seconds)
            for (lat, lon), ts in zip(points, times):
                events.append(GeoEvent(user_id, ts, lat, lon, source))
    truth.realized_edges = dict(sorted(truth.realized_edges.items()))
    return events, truth


def world_boundaries(world: SynthWorld, half_deg: float = 2.0) -> list[CountryBoundary]:
    """Square outlines around each capital, sized to contain all jitter."""
    out: list[CountryBoundary] = []
    for c in sorted(world.countries, key=lambda x: x.code):
        lat, lon = c.capital
        ring = [
            (lon - half_deg, lat - half_deg),
            (lon + half_deg, lat - half_deg),
            (lon + half_deg, lat + half_deg),
            (lon - half_deg, lat + half_deg),
            (lon - half_deg, lat - half_deg),
        ]
        out.append(CountryBoundary(code=c.code, polygons=[[ring]]))
    return out


def event_lines(events: Sequence[GeoEvent], header: bool = True) -> list[str]:
    """Events rendered in the ingest line format (shortest float spellings)."""
    lines = ["user_id,timestamp,lat,lon,source"] if header else []
    for e in events:
        lines.append(f"{e.user_id},{e.timestamp},{e.lat!r},{e.lon!r},{e.source}")
    return lines


def make_world(
    n_countries: int,
    seed: int = 0,
    A: float = 1.0,
    alpha: float = 1.0,
    beta: float = 1.0,
    gamma: float = 1.0,
    n_blocks: int = 1,
    block_boost: float = 1.0,
    populations: Sequence[int] | None = None,
    penetrations: Sequence[float] | None = None,
) -> SynthWorld:
    """Deterministic demo world: capitals on spread latitude bands.

    Codes run AA, AB, AC, ...; longitudes are evenly spaced and latitudes
    cycle five bands, keeping every capital pair hundreds of kilometers
    apart. Defaults give populations spanning half an order of magnitude
    and penetrations cycling 0.002 to 0.006. Blocks are contiguous runs of
    roughly equal size.
    """
    if n_countries < 1:
        raise ValueError("need at least one country")
    if n_countries > 26 * 26:
        raise ValueError("too many countries for two-letter codes")
    if n_blocks < 1 or n_blocks > n_countries:
        raise ValueError("n_blocks must be in [1, n_countries]")
    lat_bands = [-35.0, -15.0, 5.0, 25.0, 45.0]
    pen_cycle = [0.002, 0.003, 0.004, 0.005, 0.006]
    per_block = math.ceil(n_countries / n_blocks)
    countries: list[SynthCountry] = []
    for i in range(n_countries):
        code = chr(ord("A") + i // 26) + chr(ord("A") + i % 26)
        lon = -170.0 + i * (335.0 / n_countries)
        lat = lat_bands[i % len(lat_bands)]
        population = int(populations[i]) if populations is not None else 200_000 * (1 + i % 6)
        penetration = float(penetrations[i]) if penetrations is not None else pen_cycle[i % len(pen_cycle)]
        countries.append(
            SynthCountry(
                code=code,
                population=population,
                capital=(lat, lon),
                penetration=penetration,
                block=i // per_block,
            )
        )
    return SynthWorld(
        countries=countries,
        A=A,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        block_boost=block_boost,
        seed=seed,
    )
