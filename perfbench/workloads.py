"""The four workloads: how each makes its inputs, runs, and is checked.

Every workload generates its inputs from the seed alone, runs one job at
a time as child processes of the benchmark, and checks the job's outputs
against ground truth that the generator wrote. See README.md for why
each workload exists and which layers it stresses.

The input rewrite and the output checks run in their own processes:

    python workloads.py rewrite INPUTS SEED          # rugged inputs
    python workloads.py check WORKLOAD INPUTS OUT    # prints errors, records

A child's peak RSS starts at the peak of the process that spawned it, so
the benchmark's own process must never hold a workload's data.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import inputs
from layers import STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
PIPELINE_STAGES = tuple(stage.replace("_", "-") for stage in STAGES)  # CLI command names
REL_TOL = 1e-9

# A command is (argv after the interpreter, extra environment).
Command = tuple[list[str], dict[str, str]]


def file_hashes(directory: str, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """SHA-256 of every top-level file, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and name not in skip:
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            out[name] = digest.hexdigest()
    return out


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Pipeline:
    """A `geoflow synth` world run through the CLI pipeline.

    `users_per_country` sets the size (12 countries x 50 events per user),
    `rugged` swaps the squares for star outlines and injects noise rows,
    and `stagewise` runs each stage as its own process instead of `run`.
    """

    def __init__(self, users_per_country: int, rugged: bool = False, stagewise: bool = False):
        self.users_per_country = users_per_country
        self.rugged = rugged
        self.stagewise = stagewise

    def setup(self, dest: str, seed: int) -> list[Command]:
        env = {"GEOFLOW_SEED": str(seed), "GEOFLOW_SYNTH_USERS_PER_COUNTRY": str(self.users_per_country)}
        commands = [(["-m", "geoflow", "synth", "--out", dest], env)]
        if self.rugged:
            commands.append(([os.path.join(HERE, "workloads.py"), "rewrite", dest, str(seed)], {}))
        return commands

    def job(self, dest: str, out: str) -> list[Command]:
        steps = PIPELINE_STAGES if self.stagewise else ("run",)
        config = os.path.join(dest, "config.json")
        return [(["-m", "geoflow", step, "--config", config], {"GEOFLOW_PATHS_WORKDIR": out}) for step in steps]

    def reference_job(self, dest: str, out: str) -> list[Command] | None:
        """A one-process `run` whose artifacts the stagewise ones must equal."""
        if not self.stagewise:
            return None
        return [(["-m", "geoflow", "run", "--config", os.path.join(dest, "config.json")],
                 {"GEOFLOW_PATHS_WORKDIR": out})]

    def check(self, dest: str, out: str) -> tuple[list[str], int]:
        """Conservation, injected counts and ground truth.

        Returns the failures and the number of input event lines.
        """
        with open(os.path.join(dest, "events.csv"), "rb") as fh:
            lines = sum(1 for _ in fh)
        return check_pipeline(dest, out, lines), lines - 1


def rewrite_rugged(dest: str, seed: int) -> None:
    """Stars for squares and injected rows; records the counts to expect."""
    rng = random.Random(seed)
    inputs.write_stars(dest, rng)
    expected = inputs.inject_noise(dest, rng)
    with open(os.path.join(dest, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh)


def check_pipeline(dest: str, out: str, lines: int) -> list[str]:
    errors = []
    expected = {"malformed": 0, "unlocatable": 0, "speed_removed": 0}
    try:
        if os.path.exists(os.path.join(dest, "expected.json")):
            expected = _read_json(os.path.join(dest, "expected.json"))
        ing = _read_json(os.path.join(out, "ingest_report.json"))
        cln = _read_json(os.path.join(out, "cleaning_stats.json"))
        truth = _read_json(os.path.join(dest, "truth.json"))
        kept = len(_csv_rows(os.path.join(out, "events_clean.csv")))
        profiles = _csv_rows(os.path.join(out, "profiles.csv"))
        edges = {(o, d): int(w) for o, d, w in _csv_rows(os.path.join(out, "edges_raw.csv"))}
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    source_removed = cln["events_before"] - cln["events_after"]
    identities = {
        "lines = events + malformed + header": (
            lines, ing["n_events"] + ing["n_malformed"] + int(ing["header_skipped"])),
        "reported lines = input lines": (ing["n_lines"], lines),
        "events = labeled + unlocatable": (ing["n_events"], ing["n_labeled"] + ing["n_unlocatable_dropped"]),
        "labeled = kept + speed-removed + source-removed": (
            ing["n_labeled"], kept + cln["speed_removed"] + source_removed),
        "cleaning_stats events_after = events_clean.csv rows": (cln["events_after"], kept),
        "malformed = injected": (ing["n_malformed"], expected["malformed"]),
        "unlocatable = injected": (ing["n_unlocatable_dropped"], expected["unlocatable"]),
        "speed_removed = injected": (cln["speed_removed"], expected["speed_removed"]),
    }
    errors += [f"{name}: {a} != {b}" for name, (a, b) in identities.items() if a != b]
    bots = set(truth["bots"])
    wrong = [u for u, home, *_ in profiles if truth["residences"].get(u) != home]
    if wrong:
        errors.append(f"{len(wrong)} users with a residence other than truth.json, e.g. {wrong[0]}")
    survivors = bots.intersection(u for u, *_ in profiles)
    if survivors:
        errors.append(f"{len(survivors)} bot users survived clean, e.g. {min(survivors)}")
    planted = {tuple(key.split(":")): n for key, n in truth["realized_edges"].items()}
    if edges != planted:
        differing = len(set(edges.items()) ^ set(planted.items()))
        errors.append(f"edges_raw.csv differs from truth.realized_edges on {differing} entries")
    return errors


class Countries:
    """`hierarchical_partition` and `fit_gravity` on planted country flows."""

    script = os.path.join(HERE, "countries.py")

    def setup(self, dest: str, seed: int) -> list[Command]:
        os.makedirs(dest, exist_ok=True)
        return [([self.script, "setup", os.path.join(dest, "inputs.json"), str(seed)], {})]

    def job(self, dest: str, out: str) -> list[Command]:
        os.makedirs(out, exist_ok=True)
        return [([self.script, "job", os.path.join(dest, "inputs.json"), os.path.join(out, "countries.json")], {})]

    def reference_job(self, dest: str, out: str) -> None:
        return None

    def check(self, dest: str, out: str) -> tuple[list[str], int]:
        """Planted blocks and reference.json values; returns failures, input edges."""
        doc = _read_json(os.path.join(dest, "inputs.json"))
        blocks = doc["blocks"]
        try:
            result = _read_json(os.path.join(out, "countries.json"))
            reference = _read_json(REFERENCE)["countries"]
            levels = result["levels"]
            gravity = result["gravity"]
            assignment = levels[0]["assignment"]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc}"], len(doc["flows"])
        errors = []
        found = {frozenset(c for c, cid in assignment.items() if cid == k) for k in set(assignment.values())}
        planted = {frozenset(c for c, b in blocks.items() if b == k) for k in set(blocks.values())}
        if found != planted:
            errors.append(f"level 1 has {len(found)} communities that differ from the {len(planted)} planted blocks")
        qs = [level["q"] for level in levels]
        if len(qs) != len(reference["q_per_level"]) or not all(map(_close, qs, reference["q_per_level"])):
            errors.append(f"Q per level {qs} != reference {reference['q_per_level']}")
        for key, value in reference["gravity"].items():
            if not _close(gravity.get(key, float("nan")), value):
                errors.append(f"gravity {key} = {gravity.get(key)} != reference {value}")
        return errors, len(doc["flows"])


# BENCHMARK.json gates corpus and rugged; countries and stagewise are run by
# hand, because the time limit for all gated runs leaves room for two
# workloads at a run length that is steady on a noisy 2-core machine.
WORKLOADS = {
    # ~1e5 events, the README world: the per-event layers in one `run`.
    "corpus": Pipeline(users_per_country=166),
    # ~6e3 events on 1,000-vertex stars with injected malformed, ocean and teleport rows.
    "rugged": Pipeline(users_per_country=10, rugged=True),
    # The community optimizer and the gravity fit at 240 countries.
    "countries": Countries(),
    # Half the README world (~5e4 events), one process per stage.
    "stagewise": Pipeline(users_per_country=83, stagewise=True),
}


if __name__ == "__main__":
    if sys.argv[1] == "rewrite":
        rewrite_rugged(sys.argv[2], int(sys.argv[3]))
    else:
        errors, records = WORKLOADS[sys.argv[2]].check(sys.argv[3], sys.argv[4])
        print(json.dumps({"errors": errors, "records": records}))
