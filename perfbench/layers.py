"""Per-layer metrics derived from the spans that tracer.py records.

A span is [name, start_s, end_s, parent, cpu_s, maxrss_growth_kib,
counts]. Self time is a span's duration minus the time its child spans
cover; spans are properly nested within one process, so that is the
duration minus the children's durations.
"""

from __future__ import annotations

from collections import defaultdict

STAGES = ("ingest", "clean", "profile", "metrics", "network", "communities", "fit_gravity", "fit_powerlaw")

# Spans whose self time, and call count, is a per-layer metric.
SELF_S = (
    "ingest.parse_events", "ingest.load_boundaries", "ingest.label_events", "ingest.build_trajectories",
    "tables.read_events", "tables.write_events", "tables.write_rows", "tables.read_rows",
    "clean.speed_filter", "clean.source_popularity_filter",
    "residence.build_profiles", "residence.compute_country_stats",
    "metrics.build_mobility_profiles", "metrics.user_gyration_radii", "metrics.daily_abroad_series",
    "metrics.displacements",
    "network.build_flow_network", "network.normalize_and_filter", "network.inflow_outflow_balance",
    "community.hierarchical_partition", "community.optimize_partition",
    "models.fit_gravity", "models.fit_power_law", "models.binned_powerlaw_check", "models.capital_distances",
    "synth.generate_events", "synth.event_lines", "synth.expected_flows",
)
CALLS = (
    "ingest.parse_events", "ingest.build_trajectories", "tables.read_events", "tables.read_rows",
    "clean.speed_filter", "residence.build_profiles", "metrics.user_gyration_radii",
    "metrics.daily_abroad_series", "metrics.displacements", "community.optimize_partition",
    "models.fit_gravity",
)
# metric name -> (span name, count key) summed over every call.
COUNTS = {
    "ingest.parse_events.lines": ("ingest.parse_events", "lines"),
    "ingest.malformed": ("ingest.parse_events", "malformed"),
    "ingest.unlocatable": ("ingest.label_events", "unlocatable"),
    "tables.read_events.rows": ("tables.read_events", "rows"),
    "tables.write_events.rows": ("tables.write_events", "rows"),
    "tables.write_rows.rows": ("tables.write_rows", "rows"),
    "clean.speed_removed": ("clean.speed_filter", "removed"),
    "network.edges": ("network.normalize_and_filter", "edges"),
}


def units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    for stage in STAGES:
        out[f"cli.stage_{stage}.wall_s"] = "s"
        out[f"cli.stage_{stage}.cpu_s"] = "s"
        out[f"cli.stage_{stage}.rss_growth_mb"] = "MiB"
    for name in SELF_S:
        out[f"{name}.self_s"] = "s"
    for name in CALLS:
        out[f"{name}.calls"] = "count"
    for name in COUNTS:
        out[name] = "count"
    out["ingest.BoundaryIndex.build_s"] = "s"
    out["tables.bytes_written"] = "B"
    out["clean.event_survival"] = "share"
    out["trace.overhead_s"] = "s"
    return out


def aggregate(job_spans: list[list], setup_spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced job and its traced set-up.

    `job_spans` may concatenate the span lists of several processes;
    parents index into their own process's list, so each list is scored
    before they are joined. Synth metrics come from the set-up alone.
    A layer that does not run reads 0.
    """
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    cpu: dict[str, float] = defaultdict(float)
    rss: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    for spans in job_spans + [setup_spans]:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, cpu_s, rss_kib, span_counts), children in zip(spans, child_time):
            if (spans is setup_spans) != name.startswith("synth."):
                continue
            total[name] += end - start
            self_s[name] += end - start - children
            calls[name] += 1
            cpu[name] += cpu_s
            rss[name] += rss_kib / 1024.0
            for key, value in span_counts.items():
                counts[(name, key)] += value
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"cli.stage_{stage}.wall_s"] = total[f"cli.stage_{stage}"]
        out[f"cli.stage_{stage}.cpu_s"] = cpu[f"cli.stage_{stage}"]
        out[f"cli.stage_{stage}.rss_growth_mb"] = rss[f"cli.stage_{stage}"]
    for name in SELF_S:
        out[f"{name}.self_s"] = self_s[name]
    for name in CALLS:
        out[f"{name}.calls"] = calls[name]
    for metric, key in COUNTS.items():
        out[metric] = counts[key]
    out["ingest.BoundaryIndex.build_s"] = total["ingest.BoundaryIndex"]
    out["tables.bytes_written"] = sum(
        counts[(name, "bytes")] for name in ("tables.write_events", "tables.write_rows", "tables.write_json")
    )
    labeled = counts[("ingest.label_events", "labeled")]
    kept = counts[("clean.source_popularity_filter", "kept")]
    out["clean.event_survival"] = kept / labeled if labeled else 0.0
    return out
