"""Run a geoflow process with spans around calls into each layer.

Usage: python tracer.py SPANS_JSON (-m MODULE | SCRIPT) [ARGS...]

Wraps the module attributes that the CLI and the layers call, runs the
target as `__main__`, and on exit writes every span as
[name, start_s, end_s, parent, cpu_s, maxrss_growth_kib, counts]. Only the
benchmark's own files change; the program is run unmodified. Scalar
helpers such as `sphere.haversine_km` get no span: they are called
hundreds of thousands of times, and their cost shows in their callers'
self time.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import runpy
import sys
import time

from layers import STAGES


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None,
                    time.process_time(), _maxrss_kib(), {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
                span[4] = time.process_time() - span[4]
                span[5] = _maxrss_kib() - span[5]
            if count is not None:
                span[6] = count(args, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def install(tracer: Tracer) -> None:
    from geoflow import cli, clean, community, ingest, metrics, models, network, residence, synth, tables

    for stage in STAGES:
        tracer.wrap(cli, f"stage_{stage}", f"cli.stage_{stage}")
    tracer.wrap(ingest, "parse_events", "ingest.parse_events",
                lambda a, r: {"lines": r.n_lines, "malformed": r.n_malformed})
    tracer.wrap(ingest, "load_boundaries", "ingest.load_boundaries")
    tracer.wrap(ingest.BoundaryIndex, "__init__", "ingest.BoundaryIndex")
    tracer.wrap(ingest, "label_events", "ingest.label_events",
                lambda a, r: {"labeled": len(r[0]), "unlocatable": r[1]})
    tracer.wrap(ingest, "build_trajectories", "ingest.build_trajectories")
    tracer.wrap(tables, "read_events", "tables.read_events", lambda a, r: {"rows": len(r)})
    tracer.wrap(tables, "read_rows", "tables.read_rows")
    tracer.wrap(tables, "write_json", "tables.write_json", lambda a, r: {"bytes": os.path.getsize(a[0])})
    tracer.wrap(tables, "write_events", "tables.write_events",
                lambda a, r: {"rows": len(a[1]), "bytes": os.path.getsize(a[0])})
    write_rows = tables.write_rows

    # Rows may arrive as a generator, so count them as they are written.
    def count_write_rows(path, header, rows):
        n = 0

        def counted():
            nonlocal n
            for row in rows:
                n += 1
                yield row

        write_rows(path, header, counted())
        return n

    tables.write_rows = count_write_rows
    tracer.wrap(tables, "write_rows", "tables.write_rows",
                lambda a, r: {"rows": r, "bytes": os.path.getsize(a[0])})
    tracer.wrap(clean, "speed_filter", "clean.speed_filter", lambda a, r: {"removed": r[1]})
    tracer.wrap(clean, "source_popularity_filter", "clean.source_popularity_filter",
                lambda a, r: {"kept": r[2].events_after})
    tracer.wrap(residence, "build_profiles", "residence.build_profiles")
    tracer.wrap(residence, "compute_country_stats", "residence.compute_country_stats")
    tracer.wrap(metrics, "build_mobility_profiles", "metrics.build_mobility_profiles")
    for name in ("user_gyration_radii", "daily_abroad_series", "displacements"):
        tracer.wrap(metrics, name, f"metrics.{name}")
    tracer.wrap(network, "build_flow_network", "network.build_flow_network")
    tracer.wrap(network, "normalize_and_filter", "network.normalize_and_filter",
                lambda a, r: {"edges": len(r.edges)})
    tracer.wrap(network, "inflow_outflow_balance", "network.inflow_outflow_balance")
    tracer.wrap(community, "hierarchical_partition", "community.hierarchical_partition")
    tracer.wrap(community, "optimize_partition", "community.optimize_partition")
    for name in ("fit_gravity", "fit_power_law", "binned_powerlaw_check", "capital_distances"):
        tracer.wrap(models, name, f"models.{name}")
    # synth imported capital_distances by name; give its calls the same span.
    synth.capital_distances = models.capital_distances
    for name in ("generate_events", "event_lines", "expected_flows"):
        tracer.wrap(synth, name, f"synth.{name}")


def main(argv: list[str]) -> None:
    spans_path, target = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        if target[0] == "-m":
            sys.argv = [target[1]] + target[2:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
            runpy.run_path(target[0], run_name="__main__")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
