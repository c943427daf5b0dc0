"""Country-to-country flows: raw visitor counts, penetration-normalized
estimates, and the balance sheet they imply.
"""

from geoflow.ingest import BoundaryIndex, build_trajectories, label_events, parse_events
from geoflow.network import (
    build_flow_network,
    inflow_outflow_balance,
    normalize_and_filter,
    top_k_flows,
)
from geoflow.residence import build_profiles, compute_country_stats
from geoflow.synth import event_lines, generate_events, make_world, world_boundaries

world = make_world(8, seed=19, n_blocks=2, block_boost=4.0)
events, _ = generate_events(world, users_per_country=80, events_per_user=20, trip_rate=0.6)
labeled, _ = label_events(parse_events(event_lines(events)).events, BoundaryIndex(world_boundaries(world)))
profiles = build_profiles(labeled.take(build_trajectories(labeled)))  # it reads the rows in trajectory order

raw = build_flow_network(profiles)
print(f"raw network: {len(raw.nodes)} countries, {len(raw.edges)} directed edges")
print(f"mobile residents per origin: { {c: raw.mobile_residents[c] for c in sorted(raw.mobile_residents)} }")

census = {c.code: c.population for c in world.countries}
stats = compute_country_stats(profiles, census, min_penetration=0.0, min_residents=1)
network = normalize_and_filter(raw, stats, min_outgoing=1, min_penetration=0.0)

print("\ntop flows after penetration normalization:")
for edge in top_k_flows(network, k=5):
    print(
        f"  {edge.origin} -> {edge.destination}  raw={edge.raw_weight:>3}"
        f"  est={edge.est_weight:,.0f} people"
    )

balances = inflow_outflow_balance(network)
print("\nnet receivers and senders (estimated people):")
for code in sorted(balances, key=lambda c: -balances[c].balance):
    b = balances[code]
    print(f"  {code}  in={b.inflow:>12,.0f}  out={b.outflow:>12,.0f}  net={b.balance:>+12,.0f}")
