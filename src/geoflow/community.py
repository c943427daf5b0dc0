"""Directed weighted modularity and hierarchical modularity optimization.

Modularity compares intra-community weight against a null model that
preserves every node's in-strength and out-strength, diagonal terms
included. The optimizer is a two-phase local search: seeded greedy sweeps
with graph aggregation, then a refinement loop applying the single best
relocation or community merge per pass. Multi-restart with the trivial
one-community partition (Q = 0) always in the candidate set keeps the
result deterministic and nonnegative.

The graph is held as one dense n x n weight matrix in canonical (sorted)
node order, so memory grows as 8 n^2 bytes: this is meant for country-scale
networks. Exactness rule: every sum that feeds a decision adds its terms in
one fixed order, the edge list sorted by (origin, destination), with each
node's self-loop ahead of its out-edges when communities are aggregated.
np.cumsum and weighted np.bincount add sequentially and keep that order;
BLAS products, np.sum and np.add.reduceat add pairwise or blocked, so they
are not used for these sums. Scores use math.fsum, which is exact in any
order. An edge of weight zero still makes its endpoints neighbours.

Restart r visits nodes in the orders np.random.default_rng([seed, r])
gives, and sub-network seeds are SeedSequence words, drawn by a pure-Python
copy of those streams (PCG64: O'Neill 2014). Importing numpy.random costs
5 MiB of code pages, and NEP 19 lets numpy change them. Tests pin the copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

import numpy as np

Node = Hashable
EdgeMap = Mapping[tuple[Node, Node], float]

# Minimum modularity gain for any local move; Q is scale-free, so this
# absolute cutoff behaves identically under edge-weight rescaling.
GAIN_EPS = 1e-12
# A community splits in the hierarchy only if its internal partition
# scores above this, filtering float-noise "improvements" over Q=0.
SPLIT_EPS = 1e-9
# The hierarchy re-partitions only communities of at least this many nodes.
MIN_SPLIT_SIZE = 3

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _xorshift(value: int) -> int:
    value &= _M32
    return value ^ value >> 16


def _seed_words(entropy: Iterable[int], n_words: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n_words); an integer is its little-endian 32-bit words, 0 one word."""
    words = [v >> s & _M32 for v in entropy for s in range(0, max(v.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value, const = value ^ const, const * 0x931E8875 & _M32
        return _xorshift(value * const)

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _xorshift(0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]))
    for w, dst in itertools.product(words[4:], range(4)):  # words past the pool mix in after the cross-mix
        pool[dst] = _xorshift(0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(w))
    consts = [0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _M32 for i in range(n_words + 1)]
    return [_xorshift((pool[i % 4] ^ consts[i]) * consts[i + 1]) for i in range(n_words)]


def _draws(entropy: Iterable[int]) -> Iterator[int]:
    """The 32-bit draws of np.random.default_rng(entropy): each 64-bit PCG64 output, low half first."""
    w = _seed_words(entropy, 8)  # little-endian pairs: seed high, seed low, increment high, increment low
    seed = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _M128 | 1
    state = ((inc + seed) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> r | x << 64 - r) & _M64
        yield x & _M32
        yield x >> 32


def _permutation(draws: Iterator[int], n: int) -> list[int]:
    """Generator.permutation(n): Fisher-Yates from the top, each index by masked rejection."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):  # n < 2**32, so every index takes 32-bit draws
        mask = (1 << i.bit_length()) - 1  # the smallest all-ones mask >= i
        while (j := next(draws) & mask) > i:
            pass
        order[i], order[j] = order[j], order[i]
    return order


@dataclass(slots=True)
class Partition:
    """Community assignment (dense ids from 0) with its modularity score."""

    assignment: dict[Node, int]
    q: float

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


@dataclass(slots=True)
class PartitionHierarchy:
    """Nested partitions; level k+1 refines level k."""

    levels: list[Partition]
    parents: list[dict[int, int | None]]  # per level: community id -> parent id


class _Graph:
    """Dense weights w[i, j] of edge i -> j and the neighbour mask of distinct linked nodes."""

    __slots__ = ("n", "w", "off", "near", "s_out", "s_in", "total")

    def __init__(self, w: np.ndarray, linked: np.ndarray):
        self.n = len(w)
        self.w = w
        self.off = w.copy()  # self-loops never link a node to a community
        np.fill_diagonal(self.off, 0.0)
        self.near = linked | linked.T
        np.fill_diagonal(self.near, False)
        # A cumsum's last column (row) is the sequential row (column) sum; [-1:] keeps n = 0 valid.
        self.s_out = np.cumsum(w, axis=1)[:, -1:].ravel()
        self.s_in = np.cumsum(w, axis=0)[-1:].ravel()
        self.total = math.fsum(w.ravel())


def _graph(edges: EdgeMap, nodes: Iterable[Node] | None) -> tuple[list[Node], _Graph]:
    """Validate an edge mapping and lay it out over the sorted node list."""
    edge_map = {k: float(w) for k, w in edges.items()}
    endpoints = {u for u, _ in edge_map} | {v for _, v in edge_map}
    node_list = list(nodes) if nodes is not None else sorted(endpoints)
    missing = endpoints - set(node_list)
    if missing:
        raise ValueError(f"edges reference nodes outside the node set: {sorted(missing)}")
    for key, w in edge_map.items():
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"edge {key} has invalid weight {w}")
    canonical = sorted(node_list)
    index = {node: i for i, node in enumerate(canonical)}
    rows = [index[u] for u, _ in edge_map]
    cols = [index[v] for _, v in edge_map]
    w = np.zeros((len(canonical), len(canonical)))
    w[rows, cols] = list(edge_map.values())
    linked = np.zeros(w.shape, dtype=bool)
    linked[rows, cols] = True
    return canonical, _Graph(w, linked)


def _renumber(comm: Iterable[Hashable]) -> np.ndarray:
    """Dense ids ordered by each community's smallest member index."""
    ids: dict[Hashable, int] = {}
    return np.array([ids.setdefault(c, len(ids)) for c in comm], dtype=np.intp)


def _q_of(g: _Graph, comm: np.ndarray) -> float:
    """Modularity of a dense assignment, compensated summation."""
    terms = []
    for c in range(int(comm.max()) + 1):
        members = np.flatnonzero(comm == c)
        inner = math.fsum(g.w[np.ix_(members, members)].ravel())
        terms.append(inner - math.fsum(g.s_out[members]) * math.fsum(g.s_in[members]) / g.total)
    return math.fsum(terms) / g.total


def modularity(
    graph: EdgeMap,
    partition: Mapping[Node, int],
    nodes: Iterable[Node] | None = None,
) -> float:
    """Q = (1/W) sum_ij [w_ij - s_out_i * s_in_j / W] * delta(c_i, c_j).

    The sum runs over all ordered node pairs including i = j, so the null
    model charges every community for its members' own strength products.
    The one-community partition scores exactly zero by construction;
    W must be positive.
    """
    canonical, g = _graph(graph, nodes)
    unassigned = [n for n in canonical if n not in partition]
    if unassigned:
        raise ValueError(f"partition misses nodes: {unassigned[:5]}")
    if g.total <= 0.0:
        raise ValueError("modularity undefined: total edge weight is zero")
    return _q_of(g, _renumber(partition[n] for n in canonical))


def _gains(g: _Graph, i, a, dlink: np.ndarray, s_out_c: np.ndarray, s_in_c: np.ndarray) -> np.ndarray:
    """Modularity change of moving node i from community a into each community (the last axis).

    dlink[..., c] is i's weight to and from c minus that to and from a, self-loop
    excluded; i and a are scalars (dlink 1-D) or columns (dlink 2-D, a row per node).
    """
    s_oa = s_out_c[a] - g.s_out[i]
    s_ia = s_in_c[a] - g.s_in[i]
    return (dlink - (g.s_out[i] * (s_in_c - s_ia) + g.s_in[i] * (s_out_c - s_oa)) / g.total) / g.total


def _sweep(g: _Graph, comm: np.ndarray, s_out_c: np.ndarray, s_in_c: np.ndarray, order: list[int]) -> bool:
    """One greedy pass of best-gain single-node moves; True if any node moved."""
    moved = False
    for i in order:
        a = comm[i]
        link = np.bincount(comm, g.off[i], g.n) + np.bincount(comm, g.off[:, i], g.n)
        gain = _gains(g, i, a, link - link[a], s_out_c, s_in_c)
        gain[np.bincount(comm, g.near[i], g.n) == 0] = -np.inf  # only neighbours' communities are targets
        gain[a] = -np.inf
        best = int(np.argmax(gain))  # first maximum: ties keep the lowest id
        if gain[best] > GAIN_EPS:
            comm[i] = best
            s_out_c[a] -= g.s_out[i]
            s_in_c[a] -= g.s_in[i]
            s_out_c[best] += g.s_out[i]
            s_in_c[best] += g.s_in[i]
            moved = True
    return moved


def _sums(keys: np.ndarray, weights: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of the weights summed per key, each key's terms added in C order."""
    return np.bincount(keys.ravel(), weights.ravel(), rows * cols).reshape(rows, cols)


def _aggregate(g: _Graph, comm: np.ndarray) -> tuple[_Graph, np.ndarray]:
    """Collapse communities into super-nodes; returns (new graph, dense comm)."""
    dense = _renumber(comm.tolist())
    k = int(dense.max()) + 1
    # Row i visits its self-loop, then its out-edges by destination: i, 0, .., i - 1, i + 1, ..
    ids = np.arange(g.n)
    cols = ids - (ids <= ids[:, None])
    cols[:, 0] = ids
    w = _sums(dense[:, None] * k + dense[cols], g.w[ids[:, None], cols], k, k)
    return _Graph(w, _sums(dense[:, None] * k + dense, g.near, k, k) > 0), dense


def _one_restart(g: _Graph, draws: Iterator[int]) -> np.ndarray:
    """Greedy sweeps with aggregation until no move improves modularity; returns dense ids."""
    membership = np.arange(g.n)  # original node -> current super-node
    while True:
        comm = np.arange(g.n)
        s_out_c, s_in_c = g.s_out.copy(), g.s_in.copy()
        any_move = False
        while _sweep(g, comm, s_out_c, s_in_c, _permutation(draws, g.n)):
            any_move = True
        if not any_move:
            break
        prev_n = g.n
        g, dense = _aggregate(g, comm)
        # dense[s] is the super-node s's new id, so chain it through membership
        membership = dense[membership]
        if g.n == prev_n:
            break
    return _renumber(membership.tolist())


def _refine(g: _Graph, comm: np.ndarray) -> np.ndarray:
    """Apply the single best relocation or merge per pass until none helps.

    Relocation targets include every existing community and one empty
    community (splitting a node off); merges join two whole communities.
    Equal gains resolve to the first candidate in a fixed scan order:
    node-ascending then target-id-ascending, relocations before merges.
    Takes dense ids; the array passed in may be modified.
    """
    nodes = np.arange(g.n)
    while True:
        k = int(comm.max()) + 1
        m = k + 1  # targets: the k communities, then a fresh empty one
        s_out_c = np.bincount(comm, g.s_out, m)
        s_in_c = np.bincount(comm, g.s_in, m)
        keys = nodes[:, None] * m + comm
        link = _sums(keys, g.off, g.n, m) + _sums(keys, g.off.T, g.n, m)
        moves = _gains(g, nodes[:, None], comm[:, None], link - link[nodes, comm][:, None], s_out_c, s_in_c)
        moves[nodes, comm] = -np.inf
        moves[np.bincount(comm)[comm] == 1, k] = -np.inf  # a singleton gains nothing by splitting off
        cross = _sums(comm[:, None] * k + comm, g.off, k, k)
        null = np.outer(s_out_c[:k], s_in_c[:k])
        merges = ((cross + cross.T) - (null + null.T) / g.total) / g.total
        merges[np.tril_indices(k)] = -np.inf
        move = int(np.argmax(moves))
        merge = int(np.argmax(merges))
        if moves.flat[move] > GAIN_EPS and moves.flat[move] >= merges.flat[merge]:
            comm[move // m] = move % m
        elif merges.flat[merge] > GAIN_EPS:
            comm[comm == merge % k] = merge // k
        else:
            return comm
        comm = _renumber(comm.tolist())


def _best(g: _Graph, seed: int, restarts: int) -> tuple[np.ndarray, float]:
    """Best dense assignment over seeded restarts and its Q; all zeros and 0.0 unless one scores above 0."""
    best_comm, best_q = np.zeros(g.n, dtype=np.intp), 0.0
    if g.total > 0.0:
        for restart in range(restarts):
            comm = _refine(g, _one_restart(g, _draws([seed, restart])))
            q = _q_of(g, comm)
            if q > best_q:
                best_comm, best_q = comm, q
    return best_comm, best_q


def optimize_partition(
    graph: EdgeMap,
    seed: int = 0,
    restarts: int = 20,
    nodes: Iterable[Node] | None = None,
) -> Partition:
    """Best partition found over seeded restarts; never below Q = 0.

    Deterministic in (graph, seed, restarts): nodes are processed in a
    canonical sorted order and each restart's visit order comes from its
    own seeded generator, so the input ordering of nodes and edges is
    irrelevant. Equal scores resolve to the earliest restart, with the
    one-community partition acting as restart number minus one.
    """
    return hierarchical_partition(graph, max_levels=1, seed=seed, restarts=restarts, nodes=nodes).levels[0]


def hierarchical_partition(
    graph: EdgeMap,
    max_levels: int = 3,
    seed: int = 0,
    restarts: int = 20,
    nodes: Iterable[Node] | None = None,
) -> PartitionHierarchy:
    """Iteratively re-partition inside each community, up to max_levels.

    Each community of the current level with at least MIN_SPLIT_SIZE nodes
    is re-optimized on its induced sub-network (internal edges only, a slice
    of the one dense matrix); the split is adopted only when the sub-network
    partition scores clearly above zero. Unsplit communities carry down
    unchanged, so every level refines the previous one. Split groups take
    the next ids in order of their parent, then of their smallest member.
    Every level's q is scored on the full network; with no edge weight at
    all, every level is the one-community partition with q = 0.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    canonical, g = _graph(graph, nodes)
    if not canonical:
        raise ValueError("empty node set")
    comm, q = _best(g, seed, restarts)
    comms, qs = [comm], [q]
    for level in range(2, max_levels + 1):
        parent, comm, next_id = comm, np.empty_like(comm), 0
        for cid in range(int(parent.max()) + 1):
            m = np.flatnonzero(parent == cid)
            comm[m] = next_id
            if len(m) >= MIN_SPLIT_SIZE:
                sub = _Graph(g.w[np.ix_(m, m)], g.near[np.ix_(m, m)])
                split, sub_q = _best(sub, _seed_words([seed, level, cid], 1)[0], restarts)
                if sub_q > SPLIT_EPS:
                    comm[m] += split
            next_id = int(comm[m].max()) + 1
        comms.append(comm)
        qs.append(_q_of(g, comm) if g.total > 0.0 else 0.0)
    return PartitionHierarchy(
        levels=[Partition(assignment=dict(zip(canonical, c.tolist())), q=q) for c, q in zip(comms, qs)],
        parents=[dict.fromkeys(range(int(comms[0].max()) + 1))]
        + [dict(sorted(zip(c.tolist(), p.tolist()))) for p, c in zip(comms, comms[1:])],
    )
