"""Seeded synthetic-world generation: planted flows, events, and truth.

A world plants country populations, capitals, penetrations, block
structure, and gravity parameters; the generator turns it into an event
stream whose residences, mobility, source mix, and flow structure are
known exactly. `geoflow synth` writes the stream a block of users at a
time; tests and demos take it as a list of GeoEvents.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import tables
from .ingest import CountryBoundary, GeoEvent
from .models import capital_distances
from .sphere import haversine_many

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
_SIGMA_KM = 15.0  # spread of the Gaussian jitter around a capital
_CAP_KM = 50.0  # jitter offsets are clamped to this length
# Users drawn as one block of arrays: enough to amortize the array passes,
# few enough that a block's transients stay small at any world size.
_BLOCK_USERS = 1024
EVENT_LINE_HEADER = ",".join(tables.EVENT_HEADER[:5])  # the event file's header, less the country label


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
    and are rejected, as is a flow, or a sum of the flows out of a
    country, past the float range.
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
            try:
                f = world.A * ci.population**world.alpha * cj.population**world.beta / r**world.gamma
            except (OverflowError, ZeroDivisionError):  # a power past the float range, or r**gamma rounded to 0
                f = math.inf
            if ci.block == cj.block:
                f *= world.block_boost
            if not math.isfinite(f):
                raise ValueError(f"the planted flow {i}->{j} is not a finite number")
            flows[(i, j)] = f
        try:
            math.fsum(flows[(i, j)] for j in by_code if j != i)  # raises OverflowError past the float range
        except OverflowError:
            raise ValueError(f"the planted flows out of {i} sum past the float range") from None
    return flows


class EventBlock(NamedTuple):
    """The events of consecutive users; row i holds user i's events in time order."""

    users: list[str]  # user id of each row
    sources: list[str]  # source of each row
    timestamp: np.ndarray  # int64, (users, events_per_user)
    lat: np.ndarray  # float64, (users, events_per_user)
    lon: np.ndarray  # float64, (users, events_per_user)


def event_blocks(
    world: SynthWorld,
    users_per_country: int,
    events_per_user: int,
    trip_rate: float,
    bot_fraction: float = 0.05,
    year: int = 2012,
) -> tuple[SynthTruth, Iterator[EventBlock]]:
    """generate_events' truth and its events, drawn _BLOCK_USERS users at a time.

    The settings are checked here; the truth's per-user entries fill in as
    the blocks are drawn and are complete once the iterator is exhausted.
    A block that does not fit inside the year raises ValueError as it is
    drawn.
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
    # Destinations are country positions; every point is jittered around the capital of its position.
    dests: list[list[int]] = []
    probs: list[list[float]] = []
    for pos, code in enumerate(codes):
        dests.append([d for d in range(len(codes)) if d != pos])
        mobile = dests[pos] and row_mass[code] > 0.0 and planted_mobility[code] > 0.0
        probs.append([flows[(code, codes[d])] / row_mass[code] for d in dests[pos]] if mobile else [])
    capital_lat = np.array([by_code[c].capital[0] for c in codes])
    capital_lon = np.array([by_code[c].capital[1] for c in codes])
    km_per_deg_lon = np.array([KM_PER_DEG_LON_EQ * math.cos(math.radians(by_code[c].capital[0])) for c in codes])
    n = events_per_user
    year_end = year_start + year_seconds - 1

    def draw(first: int, last: int) -> EventBlock:
        rows = last - first
        users: list[str] = []
        sources: list[str] = []
        rngs: list[np.random.Generator] = []
        offsets = np.empty((rows, n, 2))  # east, north in km, in time order
        where = np.empty((rows, n), np.intp)  # country position of each point
        # Pass 1: each user's residence, source, trip and jitter offsets, in the order of their draws.
        for row, index in enumerate(range(first, last)):
            pos, k = divmod(index, users_per_country)
            code = codes[pos]
            rng = np.random.default_rng([world.seed, index])
            rngs.append(rng)
            user_id = f"u{index:06d}"
            is_bot = k >= users_per_country - n_bots
            if is_bot:
                source = f"bot_{code}_{k:04d}"
                truth.bots.append(user_id)
            else:
                source = HUMAN_SOURCES[_SOURCE_PATTERN[k % len(_SOURCE_PATTERN)]]
            truth.residences[user_id] = code
            truth.sources[user_id] = source
            users.append(user_id)
            sources.append(source)
            n_foreign = 0
            if not is_bot and probs[pos] and rng.random() < planted_mobility[code]:
                destination = dests[pos][int(rng.choice(len(dests[pos]), p=probs[pos]))]
                n_foreign = int(rng.integers(1, max_foreign + 1))
                truth.realized_mobile[code] += 1
                edge = (code, codes[destination])
                truth.realized_edges[edge] = truth.realized_edges.get(edge, 0) + 1
            n_home = n - n_foreign
            where[row] = pos
            if n_foreign:
                trip_after = int(rng.integers(1, n_home + 1))
                home = rng.normal(0.0, _SIGMA_KM, size=(n_home, 2))
                trip_end = trip_after + n_foreign
                offsets[row, :trip_after] = home[:trip_after]
                offsets[row, trip_after:trip_end] = rng.normal(0.0, _SIGMA_KM, size=(n_foreign, 2))
                offsets[row, trip_end:] = home[trip_after:]
                where[row, trip_after:trip_end] = destination
            else:
                offsets[row] = rng.normal(0.0, _SIGMA_KM, size=(n_home, 2))
        # Jitter: offsets longer than _CAP_KM are scaled back onto the cap. math.hypot is
        # Python's own; numpy's is libm's and may differ in the last bit.
        east, north = offsets[..., 0].ravel(), offsets[..., 1].ravel()
        norm = np.fromiter(map(math.hypot, memoryview(east), memoryview(north)), np.float64, east.size)
        clip = norm > _CAP_KM
        scale = _CAP_KM / norm[clip]
        east[clip] *= scale
        north[clip] *= scale
        where = where.ravel()
        lat = (capital_lat[where] + north / KM_PER_DEG_LAT).reshape(-1, n)
        lon = (capital_lon[where] + east / km_per_deg_lon[where]).reshape(-1, n)
        # Speed-safe minimum gaps, and the sum of those still to come after each event.
        hops = haversine_many(lat[:, :-1].ravel(), lon[:, :-1].ravel(), lat[:, 1:].ravel(), lon[:, 1:].ravel())
        gaps = SECONDS_PER_HOUR + SECONDS_PER_KM * np.ceil(hops).astype(np.int64).reshape(rows, n - 1)
        suffix = np.zeros((rows, n), np.int64)
        suffix[:, :-1] = np.cumsum(gaps[:, ::-1], axis=1)[:, ::-1]
        latest_start = year_seconds - suffix[:, 0] - 1
        if (latest_start < 0).any():
            raise ValueError("events do not fit inside the year at safe spacing")
        # Pass 2: each user's start and slack draws.
        bound = np.empty((rows, n), np.int64)
        steps = np.empty((rows, n - 1), np.int64)
        for row, (rng, latest) in enumerate(zip(rngs, latest_start.tolist())):
            bound[row, 0] = year_start + int(rng.integers(0, latest + 1))
            steps[row] = rng.integers(0, MAX_EXTRA_GAP + 1, size=n - 1)
        # t_k = min(t_{k-1} + step_k, year_end - suffix_k), with step_k = gap_k + extra_k. Less the
        # running sum S_k of the steps it is a running minimum of t_0 and the bounds less S_k.
        steps += gaps
        running = np.zeros((rows, n), np.int64)
        np.cumsum(steps, axis=1, out=running[:, 1:])
        bound[:, 1:] = year_end - suffix[:, 1:] - running[:, 1:]
        timestamp = running + np.minimum.accumulate(bound, axis=1)
        return EventBlock(users, sources, timestamp, lat, lon)

    def blocks() -> Iterator[EventBlock]:
        n_users = len(codes) * users_per_country
        for first in range(0, n_users, _BLOCK_USERS):
            yield draw(first, min(first + _BLOCK_USERS, n_users))
        truth.realized_edges = dict(sorted(truth.realized_edges.items()))

    return truth, blocks()


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
    truth, blocks = event_blocks(world, users_per_country, events_per_user, trip_rate, bot_fraction, year)
    events = [
        GeoEvent(user, t, y, x, source)
        for block in blocks
        for user, source, ts, ys, xs in zip(
            block.users, block.sources, block.timestamp.tolist(), block.lat.tolist(), block.lon.tolist()
        )
        for t, y, x in zip(ts, ys, xs)
    ]
    return events, truth


def world_boundaries(world: SynthWorld) -> list[CountryBoundary]:
    """Square outlines, 2 degrees from each capital to each side, sized to contain all jitter."""
    out: list[CountryBoundary] = []
    for c in sorted(world.countries, key=lambda x: x.code):
        lat, lon = c.capital
        ring = [(lon - 2.0, lat - 2.0), (lon + 2.0, lat - 2.0), (lon + 2.0, lat + 2.0), (lon - 2.0, lat + 2.0)]
        ring.append(ring[0])
        out.append(CountryBoundary(code=c.code, polygons=[[ring]]))
    return out


def event_lines(events: Sequence[GeoEvent]) -> list[str]:
    """Events rendered in the ingest line format (shortest float spellings), header first."""
    lines = [EVENT_LINE_HEADER]
    for e in events:
        lines.append(f"{e.user_id},{e.timestamp},{e.lat!r},{e.lon!r},{e.source}")
    return lines


def event_csv(blocks: Iterable[EventBlock]) -> Iterator[bytes]:
    """The event_lines of the blocks' events after the header, as tables.csv_blocks yields them: each block's
    lines formatted once it is drawn."""
    for block in blocks:
        rows = np.repeat(np.arange(len(block.users)), block.timestamp.shape[1])
        columns = [block.timestamp.ravel(), block.lat.ravel(), block.lon.ravel()]
        yield from tables.csv_blocks([(block.users, rows), *columns, (block.sources, rows)])


def make_world(
    n_countries: int,
    seed: int = 0,
    A: float = 1.0,
    alpha: float = 1.0,
    beta: float = 1.0,
    gamma: float = 1.0,
    n_blocks: int = 1,
    block_boost: float = 1.0,
) -> SynthWorld:
    """Deterministic demo world: capitals on spread latitude bands.

    Codes run AA, AB, AC, ...; longitudes are evenly spaced and latitudes
    cycle five bands, keeping every capital pair hundreds of kilometers
    apart. Populations span half an order of magnitude and penetrations
    cycle 0.002 to 0.006. Blocks are contiguous runs of roughly equal size.
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
        countries.append(
            SynthCountry(
                code=code,
                population=200_000 * (1 + i % 6),
                capital=(lat, lon),
                penetration=pen_cycle[i % len(pen_cycle)],
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
