"""The benchmark's own rewrite of a generated world into the `rugged` inputs.

`geoflow synth` writes square boundaries and clean events. The rugged
workload replaces each square by a many-vertex star around the capital and
injects three kinds of row whose counts the pipeline must report exactly:
malformed lines, open-ocean points and speed-cap-violating teleports.
Everything is drawn from one seeded `random.Random`, so a seed always
gives the same files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

# Mirrors the generator's degree/km conversion, so a star drawn in km
# around a capital contains the generator's km-scattered jitter.
KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQ = 111.320
STAR_VERTICES = 1000  # spikes alternate outer and inner radii
STAR_INNER_KM = 80.0  # above the generator's 50 km jitter cap
STAR_OUTER_KM = (120.0, 200.0)
N_MALFORMED = 48
N_OCEAN = 48
N_TELEPORT = 48


def star_ring(lat0: float, lon0: float, rng: random.Random) -> list[list[float]]:
    """Closed [lon, lat] ring of STAR_VERTICES vertices around a capital.

    Every segment runs between an inner vertex and an outer one, so the
    disc of radius STAR_INNER_KM lies inside the ring.
    """
    coslat = math.cos(math.radians(lat0))
    ring = []
    for k in range(STAR_VERTICES):
        theta = 2.0 * math.pi * k / STAR_VERTICES
        r = rng.uniform(*STAR_OUTER_KM) if k % 2 == 0 else STAR_INNER_KM
        lat = lat0 + r * math.sin(theta) / KM_PER_DEG_LAT
        lon = lon0 + r * math.cos(theta) / (KM_PER_DEG_LON_EQ * coslat)
        ring.append([lon, lat])
    ring.append(ring[0])
    return ring


def read_capitals(world_dir: str) -> dict[str, tuple[float, float]]:
    with open(os.path.join(world_dir, "capitals.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {code: (float(lat), float(lon)) for code, lat, lon in rows}


def write_stars(world_dir: str, rng: random.Random) -> None:
    capitals = read_capitals(world_dir)
    features = [
        {
            "type": "Feature",
            "properties": {"code": code},
            "geometry": {"type": "Polygon", "coordinates": [star_ring(lat, lon, rng)]},
        }
        for code, (lat, lon) in sorted(capitals.items())
    ]
    with open(os.path.join(world_dir, "boundaries.geojson"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def _malformed(kind: int, user: str, ts: int, src: str) -> str:
    """One line that the event parser must reject; all valid UTF-8."""
    return [
        f"{user},{ts},10.5",  # too few fields
        f"{user},t{ts},10.5,20.5,{src}",  # timestamp not an integer
        f"{user},{ts},95.5,20.5,{src}",  # latitude out of range
        f"{user},{ts},north,20.5,{src}",  # non-numeric coordinate
        f",{ts},10.5,20.5,{src}",  # empty user id
        f"{user},{ts},10.5,20.5,{src},Ü1",  # bad country code
        "",  # blank line
        f"{user},{ts},10.5,20.5,{src},AA,extra",  # too many fields
        f"{user},-{ts},10.5,20.5,{src}",  # negative timestamp
        "über,alles,ärger",  # three non-numeric fields
    ][kind % 10]


def inject_noise(world_dir: str, rng: random.Random) -> dict[str, int]:
    """Insert malformed, open-ocean and teleport rows into events.csv.

    Returns the counts the pipeline must report for them. A teleport
    copies a human user's home event, moves it to another country's
    capital and delays it by 1 to 60 seconds, so the speed filter drops
    exactly that row and nothing else of the user.
    """
    path = os.path.join(world_dir, "events.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(world_dir, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    capitals = read_capitals(world_dir)
    bots = set(truth["bots"])
    home_times: dict[str, list[int]] = {}  # human user -> timestamps of events at home
    for line in lines[1:]:
        user, ts, lat, lon, _ = line.split(",")
        home = capitals[truth["residences"][user]]
        if user not in bots and abs(float(lat) - home[0]) < 1.0 and abs(float(lon) - home[1]) < 2.0:
            home_times.setdefault(user, []).append(int(ts))
    humans = sorted(home_times)
    noise = []
    for user in rng.sample(humans, N_TELEPORT):
        ts = rng.choice(home_times[user])
        away = rng.choice(sorted(c for c in capitals if c != truth["residences"][user]))
        lat, lon = capitals[away]
        noise.append(f"{user},{ts + rng.randint(1, 60)},{lat!r},{lon!r},{truth['sources'][user]}")
    for _ in range(N_OCEAN):
        user = rng.choice(humans)
        ts = rng.choice(home_times[user])
        lat, lon = -60.0 - 25.0 * rng.random(), rng.uniform(-179.0, 179.0)
        noise.append(f"{user},{ts + 1},{lat!r},{lon!r},{truth['sources'][user]}")
    for kind in range(N_MALFORMED):
        user = rng.choice(humans)
        noise.append(_malformed(kind, user, rng.choice(home_times[user]), truth["sources"][user]))
    body = lines[1:]
    for row in noise:
        body.insert(rng.randint(0, len(body)), row)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([lines[0]] + body) + "\n")
    return {"malformed": N_MALFORMED, "unlocatable": N_OCEAN, "speed_removed": N_TELEPORT}
