"""The `countries` library job: modularity hierarchy and gravity fit.

    python countries.py setup INPUTS_JSON SEED   # world and planted flows
    python countries.py job INPUTS_JSON OUT_JSON

The inputs are the planted flows of a 240-country world with 6 blocks
(57,360 directed edges). The job runs `hierarchical_partition` and
`fit_gravity` on them, the case ROADMAP item 4 rewrites, and writes the
partition levels, their Q and the fitted parameters.
"""

from __future__ import annotations

import json
import sys

N_COUNTRIES = 240
N_BLOCKS = 6
BLOCK_BOOST = 4.0
MAX_LEVELS = 3
RESTARTS = 20


def setup(path: str, seed: int) -> None:
    from geoflow import synth

    world = synth.make_world(N_COUNTRIES, seed=seed, n_blocks=N_BLOCKS, block_boost=BLOCK_BOOST)
    flows = synth.expected_flows(world)
    doc = {
        "seed": seed,
        "flows": [[o, d, w] for (o, d), w in sorted(flows.items())],
        "populations": {c.code: c.population for c in world.countries},
        "capitals": {c.code: list(c.capital) for c in world.countries},
        "blocks": {c.code: c.block for c in world.countries},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def job(inputs_path: str, out_path: str) -> None:
    from geoflow import community, models

    with open(inputs_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    flows = {(o, d): w for o, d, w in doc["flows"]}
    hierarchy = community.hierarchical_partition(
        flows, max_levels=MAX_LEVELS, seed=doc["seed"], restarts=RESTARTS
    )
    capitals = {code: tuple(latlon) for code, latlon in doc["capitals"].items()}
    populations = {code: float(p) for code, p in doc["populations"].items()}
    fit = models.fit_gravity(flows, populations, models.capital_distances(capitals))
    out = {
        "levels": [{"q": level.q, "assignment": level.assignment} for level in hierarchy.levels],
        "gravity": {k: getattr(fit, k) for k in ("logA", "alpha", "beta", "gamma", "r2", "n_pairs")},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    else:
        job(sys.argv[2], sys.argv[3])
