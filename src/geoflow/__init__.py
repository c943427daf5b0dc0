"""Country-level mobility mining from geo-located event streams.

The pipeline turns timestamped lat/lon events into cleaned trajectories,
per-user residences, country mobility metrics, a directed country flow
network with penetration normalization, hierarchical modularity
partitions, and fitted mobility models (power laws, gravity). A seeded
synthetic-world generator provides exact ground truth for all of it.
"""

import os

# Before numpy loads: one BLAS thread for a single-threaded pipeline; a user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
__version__ = "0.1.0"
