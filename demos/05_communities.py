"""Directed modularity and hierarchical partitioning on planted benchmarks.

Two experiments: exact recovery of planted blocks, and a two-level
hierarchy where the top split hides a finer one inside each half.
"""

from geoflow.community import hierarchical_partition, modularity, optimize_partition


def members(partition):
    """Each community's sorted nodes, by community id: the ids run from 0."""
    return [sorted(n for n, c in partition.assignment.items() if c == cid) for cid in range(partition.n_communities)]


# ---- planted 4-block digraph: strong inside, weak across -------------------

nodes = [f"n{i:02d}" for i in range(20)]
edges = {}
for u in nodes:
    for v in nodes:
        if u != v:
            edges[(u, v)] = 10.0 if int(u[1:]) // 5 == int(v[1:]) // 5 else 0.1

partition = optimize_partition(edges, restarts=20)
print(f"planted blocks recovered: {partition.n_communities} communities, q={partition.q:.4f}")
for community in members(partition):
    print(f"  {community}")

flat_q = modularity(edges, {node: 0 for node in nodes})
print(f"all-in-one q = {flat_q:.2e} (the null partition scores zero)")

# ---- nested structure: 2 super-blocks, each hiding 4-node cycles -----------

# sub-blocks are directed 4-cycles (weight 10); countries of the same
# super-block interact at weight 1, across super-blocks at 0.01
nested = {}
blocks = [[f"m{4 * b + i:02d}" for i in range(4)] for b in range(4)]
for block in blocks:
    for i in range(4):
        nested[(block[i], block[(i + 1) % 4])] = 10.0
for bi, block_a in enumerate(blocks):
    for bj, block_b in enumerate(blocks):
        if bi == bj:
            continue
        weight = 1.0 if bi // 2 == bj // 2 else 0.01
        for u in block_a:
            for v in block_b:
                nested[(u, v)] = weight

hierarchy = hierarchical_partition(nested, max_levels=3, restarts=20)
for depth, level in enumerate(hierarchy.levels):
    sizes = sorted(len(c) for c in members(level))
    print(f"level {depth}: {level.n_communities} communities {sizes}  q={level.q:.4f}")

print("\nwho split into whom:")
for child, parent in sorted(hierarchy.parents[1].items()):
    names = members(hierarchy.levels[1])[child]
    print(f"  level-1 community {child} (from level-0 {parent}): {names}")
