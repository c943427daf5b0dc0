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

raw = build_flow_network(profiles)  # code columns over the sorted country names, so code order is name order
mobile = {raw.countries[c]: m for c, m in zip(raw.nodes.tolist(), raw.mobile_residents.tolist())}
print(f"raw network: {len(raw.nodes)} countries, {len(raw.edges)} directed edges")
print(f"mobile residents per origin: {mobile}")

census = {c.code: c.population for c in world.countries}
stats = compute_country_stats(profiles, census, min_penetration=0.0, min_residents=1)
network = normalize_and_filter(raw, stats, min_outgoing=1, min_penetration=0.0)

print("\ntop flows after penetration normalization:")
for row in top_k_flows(network, k=5).tolist():  # edge rows, heaviest first
    origin, destination = (network.countries[c] for c in network.edges[row].tolist())
    print(
        f"  {origin} -> {destination}  raw={network.raw_weight[row].item():>3}"
        f"  est={network.est_weight[row].item():,.0f} people"
    )

inflow, outflow = inflow_outflow_balance(network)  # per node, in code order
codes = [network.countries[c] for c in network.nodes.tolist()]
print("\nnet receivers and senders (estimated people):")
for code, into, out in sorted(zip(codes, inflow.tolist(), outflow.tolist()), key=lambda row: -(row[1] - row[2])):
    print(f"  {code}  in={into:>12,.0f}  out={out:>12,.0f}  net={into - out:>+12,.0f}")
