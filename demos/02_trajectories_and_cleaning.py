"""Parse an event stream, label countries, and run both cleaning filters.

The stream here is synthetic plus a few hand-broken lines, so the parser's
accounting and the speed filter's work are visible.
"""

from geoflow.clean import source_popularity_filter, speed_filter
from geoflow.ingest import BoundaryIndex, build_trajectories, label_events, parse_events, runs
from geoflow.sphere import normalize_lon
from geoflow.synth import event_lines, generate_events, make_world, world_boundaries

world = make_world(4, seed=7)
events, truth = generate_events(world, users_per_country=40, events_per_user=15, trip_rate=0.4)
index = BoundaryIndex(world_boundaries(world))

lines = event_lines(events)
lines.insert(100, "u000003,not_a_timestamp,10.0,20.0,app_web")  # broken on purpose
lines.insert(200, "u000004,1335000000,95.0,20.0,app_web")  # latitude out of range
# a teleporting event: 1 second after an existing one, half a world away;
# it arrives labeled, so it survives labeling
victim = events[10]
lines.append(
    f"{victim.user_id},{victim.timestamp + 1},{-victim.lat!r},{normalize_lon(victim.lon - 170.0)!r},"
    f"{victim.source},{index.locate(victim.lon, victim.lat)}"
)

report = parse_events(lines)
print(f"lines in: {report.n_lines}   events out: {len(report.events)}   malformed: {report.n_malformed}")
for lineno, reason in report.errors:
    print(f"  line {lineno}: {reason}")

labeled, dropped = label_events(report.events, index)
print(f"labeled {len(labeled)} events with countries ({dropped} outside all boundaries)")

trajectories = labeled.take(build_trajectories(labeled))
offsets = runs(trajectories.user)  # one run of rows per user
print(f"\n{len(offsets) - 1} trajectories; longest has {max(offsets[1:] - offsets[:-1])} events")

keep, removed_total = speed_filter(trajectories, max_speed_kmh=1000.0)
kept = trajectories.take(keep)
print(f"speed filter removed {removed_total} event(s)")

retained, keep, stats = source_popularity_filter(kept, coverage=0.95, weight_mode="users")
cleaned = kept.take(keep)
print("\nsource filter at 95% coverage:")
print(f"  users  {stats.users_before} -> {stats.users_after}  ({stats.user_fraction:.1%} kept)")
print(f"  events {stats.events_before} -> {stats.events_after}  ({stats.event_fraction:.1%} kept)")
for country in sorted(retained):
    ranked = [s for s, _ in stats.rankings[country]]
    print(f"  {country}: kept {sorted(retained[country])} of {ranked}")

bot_sources = {truth.sources[u] for u in truth.bots}
leaked = bot_sources & {cleaned.sources[s] for s in set(cleaned.source.tolist())}
print(f"\nbot sources leaked through: {len(leaked)}")
