"""`geoflow run` on the columnar event table against the object-based oracles.

Hypothesis reorders a small synthetic world's event lines and adds hostile
ones: users out of order, equal timestamps, teleports, zero-gap duplicates,
bot sources and fields in non-canonical spellings. Every event-level
artifact of `run` must equal, byte for byte, what the one-object-per-event
pipeline in helpers.py writes for the same input.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow.cli import main
from geoflow.config import load_config
from helpers import oracle_artifacts

SYNTH = {
    "seed": 5,
    "synth": {"n_countries": 3, "users_per_country": 6, "events_per_user": 8, "trip_rate": 0.5, "bot_fraction": 0.2},
}


def cli(*argv, env=None):
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("GEOFLOW_")}
    os.environ.update(env or {})
    try:
        return main(list(argv))
    finally:
        for k in env or {}:
            os.environ.pop(k, None)
        os.environ.update(saved)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    base = tmp_path_factory.mktemp("oracle")
    (base / "synth.json").write_text(json.dumps(SYNTH))
    assert cli("synth", "--config", str(base / "synth.json"), "--out", str(base / "world")) == 0
    header, *lines = (base / "world" / "events.csv").read_text().splitlines()
    truth = json.loads((base / "world" / "truth.json").read_text())
    capitals = sorted((c["code"], c["capital"]) for c in truth["world"]["countries"])
    return base, header, lines, capitals


KINDS = ["near", "teleport", "duplicate", "same_time", "bot", "padded", "spelled", "seam", "labeled", "ocean", "bad"]


def hostile_line(kind, base_line, capitals, pick, offset, dx, dy):
    """One added event line of the given kind, built from an existing line of the world."""
    user, ts, lat, lon, source = base_line.split(",")
    ts = int(ts)
    code, (clat, clon) = capitals[pick % len(capitals)]
    here_lat, here_lon = clat + dy, clon + dx
    if kind == "near":  # somewhere in a country, an hour or a few days on
        return f"{user},{ts + offset},{here_lat!r},{here_lon!r},{source}"
    if kind == "teleport":  # another country within a minute
        return f"{user},{ts + offset % 60},{here_lat!r},{here_lon!r},{source}"
    if kind == "duplicate":  # the same event again: a zero gap at zero distance
        return base_line
    if kind == "same_time":  # an equal timestamp somewhere else
        return f"{user},{ts},{here_lat!r},{here_lon!r},{source}"
    if kind == "bot":  # a rare source shared by a few made-up users
        return f"zbot{offset % 3},{ts + offset},{here_lat!r},{here_lon!r},bot_app{offset % 2}"
    if kind == "padded":
        return f" {user} , {ts + offset} , {here_lat!r} , {here_lon!r} , {source} "
    if kind == "spelled":  # "+3" timestamps, trailing zeros and exponents
        return f"{user},+{ts + offset},{here_lat:.2f}0,{here_lon:.3e},{source}"
    if kind == "seam":  # -180 reads as +180; labeled, so it stays
        return f"{user},{ts + offset},{dy!r},-180,{source},{code.lower()}"
    if kind == "labeled":
        return f"{user},{ts + offset},{here_lat!r},{here_lon!r},{source}, {code} "
    if kind == "ocean":  # no country contains it: dropped as unlocatable
        return f"{user},{ts + offset},{dy!r},{-150.0 + dx!r},{source}"
    return f"{user},{ts},{lat}" if offset % 2 else f"{user},{ts},{lat},190,{source}"  # malformed


@settings(max_examples=15)
@given(
    shuffle=st.randoms(use_true_random=False),
    extra=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.integers(0, 10**6),
            st.integers(0, 2),
            st.integers(0, 5 * 86400),
            st.floats(-1.9, 1.9),
            st.floats(-1.9, 1.9),
        ),
        max_size=25,
    ),
)
def test_run_writes_what_the_object_pipeline_writes(world, shuffle, extra):
    base, header, lines, capitals = world
    lines = lines + [hostile_line(kind, lines[i % len(lines)], capitals, *rest) for kind, i, *rest in extra]
    shuffle.shuffle(lines)
    events = base / "hostile.csv"
    events.write_text("\n".join([header, *lines]) + "\n")
    # A low coverage makes the source filter drop sources even in a world this small.
    env = {
        "GEOFLOW_PATHS_EVENTS": str(events),
        "GEOFLOW_PATHS_WORKDIR": str(base / "artifacts"),
        "GEOFLOW_CLEAN_COVERAGE": "0.75",
    }
    config_path = str(base / "world" / "config.json")
    assert cli("run", "--config", config_path, env=env) == 0
    want = oracle_artifacts(load_config(config_path, env=env))
    for name, text in want.items():
        assert (base / "artifacts" / name).read_bytes() == text.encode(), name
