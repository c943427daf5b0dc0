"""Country-level mobility mining from geo-located event streams.

The pipeline turns timestamped lat/lon events into cleaned trajectories,
per-user residences, country mobility metrics, a directed country flow
network with penetration normalization, hierarchical modularity
partitions, and fitted mobility models (power laws, gravity). A seeded
synthetic-world generator provides exact ground truth for all of it.
"""

from .clean import source_popularity_filter, speed_filter
from .community import Partition, PartitionHierarchy, hierarchical_partition, modularity, optimize_partition
from .ingest import BoundaryIndex, CountryBoundary, EventTable, GeoEvent
from .ingest import build_trajectories, load_boundaries, parse_events
from .metrics import (
    DailySeries,
    MobilityProfile,
    build_mobility_profiles,
    daily_abroad_series,
    displacements,
    is_mobile,
    mobility_rate,
)
from .models import (
    GravityFit,
    PowerLawFit,
    capital_distances,
    fit_gravity,
    fit_power_law,
    loglog_regression,
    validate_external,
)
from .network import FlowNetwork, build_flow_network, inflow_outflow_balance, normalize_and_filter, top_k_flows
from .residence import CountryStats, UserProfile, assign_residence, build_profiles, compute_country_stats
from .sphere import EARTH_RADIUS_KM, haversine_km
from .synth import SynthCountry, SynthWorld, expected_flows, generate_events, make_world, sample_power_law

__version__ = "0.1.0"

__all__ = [
    "EARTH_RADIUS_KM",
    "BoundaryIndex",
    "CountryBoundary",
    "CountryStats",
    "DailySeries",
    "EventTable",
    "FlowNetwork",
    "GeoEvent",
    "GravityFit",
    "MobilityProfile",
    "Partition",
    "PartitionHierarchy",
    "PowerLawFit",
    "SynthCountry",
    "SynthWorld",
    "UserProfile",
    "assign_residence",
    "build_flow_network",
    "build_mobility_profiles",
    "build_profiles",
    "build_trajectories",
    "capital_distances",
    "compute_country_stats",
    "daily_abroad_series",
    "displacements",
    "expected_flows",
    "fit_gravity",
    "fit_power_law",
    "generate_events",
    "haversine_km",
    "hierarchical_partition",
    "inflow_outflow_balance",
    "is_mobile",
    "load_boundaries",
    "loglog_regression",
    "make_world",
    "mobility_rate",
    "modularity",
    "normalize_and_filter",
    "optimize_partition",
    "parse_events",
    "sample_power_law",
    "source_popularity_filter",
    "speed_filter",
    "top_k_flows",
    "validate_external",
]
