"""From cleaned events to residences, penetration rates, and mobility metrics."""

import numpy as np

from geoflow.ingest import BoundaryIndex, build_trajectories, label_events, parse_events
from geoflow.metrics import (
    build_mobility_profiles,
    daily_abroad_series,
    displacements,
    user_gyration_radii,
)
from geoflow.residence import build_profiles, compute_country_stats
from geoflow.synth import event_lines, generate_events, make_world, world_boundaries

world = make_world(5, seed=3)
events, truth = generate_events(world, users_per_country=60, events_per_user=25, trip_rate=0.5)
index = BoundaryIndex(world_boundaries(world))
labeled, _ = label_events(parse_events(event_lines(events)).events, index)
trajectories = labeled.take(build_trajectories(labeled))

profiles = build_profiles(trajectories)  # columns by user code over the events' vocabularies
has = np.flatnonzero(profiles.residence >= 0)  # the users with an event
homes = [profiles.countries[c] for c in profiles.residence[has].tolist()]
hits = sum(home == truth.residences[profiles.users[u]] for u, home in zip(has.tolist(), homes))
print(f"residence assignment: {hits}/{len(has)} match the planted truth")

census = {c.code: c.population for c in world.countries}
stats = compute_country_stats(profiles, census, min_penetration=0.0, min_residents=1)  # its artifact's columns
print("\ncountry statistics:")
for code, residents, penetration, included in zip(
    *(stats[k] for k in ("code", "residents", "penetration", "included"))
):
    print(f"  {code}  residents={residents:>3}  penetration={penetration:.5f}  included={included}")

radii = user_gyration_radii(trajectories)  # by user code, like the profiles
mobility = build_mobility_profiles(profiles, radii)  # mobility_profiles.csv's columns, in code order
print("\nmobility by residence country:")
for code, rate, radius, visited in zip(
    *(mobility[k] for k in ("code", "mobility_rate", "mean_radius_km", "countries_visited"))
):
    print(
        f"  {code}  rate={rate:.3f} (planted {truth.planted_mobility[code]:.3f})"
        f"  mean_r_g={radius:,.0f} km  destinations={visited}"
    )

radii = radii[has]
stay_home = int(np.count_nonzero(radii < 100.0))
print(f"\nradius of gyration: median {np.median(radii):,.1f} km; "
      f"{stay_home}/{len(radii)} users stay within 100 km")

_, hops = displacements(trajectories)
hops = hops.tolist()
short = sum(1 for d in hops if d < 100.0)
print(f"displacements: {len(hops):,} hops, {short / len(hops):.1%} under 100 km "
      f"(longest {max(hops):,.0f} km)")

countries, outbound, inbound = daily_abroad_series(profiles, labeled, year=2012)  # a row per country, a column per day
counts = outbound[0]
peak = int(counts.argmax())
print(f"\ndaily series for {countries[0]}: {counts.sum()} user-days abroad, "
      f"peak {counts[peak]} users on day {peak}; {inbound[0].sum()} visitor-days")
