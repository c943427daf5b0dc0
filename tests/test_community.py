"""Directed modularity and its optimizer, checked against exhaustive oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from geoflow import community
from geoflow.community import hierarchical_partition, modularity, optimize_partition
from geoflow.synth import expected_flows, make_world
from helpers import (
    brute_best_q,
    groups_of,
    nested_fixture,
    pairwise_q,
    random_digraph,
    reference_hierarchical_partition,
    set_partitions,
    strength_q,
)


def two_cycles():
    edges = {}
    for trio in (("a", "b", "c"), ("d", "e", "f")):
        for i in range(3):
            edges[(trio[i], trio[(i + 1) % 3])] = 1.0
    return edges


# ---------------------------------------------------------------- modularity


def test_two_node_singletons_score_minus_half():
    edges = {("a", "b"): 1.0, ("b", "a"): 1.0}
    assert modularity(edges, {"a": 0, "b": 1}) == pytest.approx(-0.5, abs=1e-12)


def test_all_in_one_is_zero():
    for seed in range(25):
        edges = random_digraph(seed, n=7)
        nodes = sorted({u for e in edges for u in e})
        assignment = {u: 0 for u in nodes}
        assert abs(modularity(edges, assignment)) <= 1e-12


def test_matches_literal_pairwise_sum():
    rng = np.random.default_rng(42)
    for seed in range(12):
        edges = random_digraph(seed, n=6)
        nodes = sorted({u for e in edges for u in e})
        assignment = {u: int(rng.integers(0, 3)) for u in nodes}
        want = pairwise_q(edges, assignment)
        assert modularity(edges, assignment) == pytest.approx(want, abs=1e-12)


def test_matches_strength_formulation():
    for seed in range(12):
        edges = random_digraph(seed + 100, n=7)
        nodes = sorted({u for e in edges for u in e})
        assignment = {u: i % 3 for i, u in enumerate(nodes)}
        groups: dict[int, list[str]] = {}
        for u, c in assignment.items():
            groups.setdefault(c, []).append(u)
        want = strength_q(edges, list(groups.values()))
        assert modularity(edges, assignment) == pytest.approx(want, abs=1e-12)


def test_relabeling_communities_leaves_q_unchanged():
    edges = two_cycles()
    a = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    b = {"a": 7, "b": 7, "c": 7, "d": 3, "e": 3, "f": 3}
    assert modularity(edges, a) == modularity(edges, b)


def test_isolated_node_contributes_nothing():
    edges = two_cycles()
    base = modularity(edges, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1})
    with_iso = modularity(
        edges,
        {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1, "zz": 2},
        nodes=["a", "b", "c", "d", "e", "f", "zz"],
    )
    assert with_iso == pytest.approx(base, abs=1e-15)


def test_empty_network_rejected():
    with pytest.raises(ValueError):
        modularity({}, {})
    with pytest.raises(ValueError):
        modularity({("a", "b"): 0.0}, {"a": 0, "b": 0})


def test_partition_must_cover_all_nodes():
    with pytest.raises(ValueError):
        modularity({("a", "b"): 1.0}, {"a": 0})


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        modularity({("a", "b"): -1.0}, {"a": 0, "b": 0})


def test_self_loop_counts_into_its_community():
    edges = {("a", "a"): 2.0, ("a", "b"): 1.0, ("b", "a"): 1.0}
    for assignment in ({"a": 0, "b": 0}, {"a": 0, "b": 1}):
        want = pairwise_q(edges, assignment)
        assert modularity(edges, assignment) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- optimizer


def test_single_node_graph():
    part = optimize_partition({("a", "a"): 1.0})
    assert part.assignment == {"a": 0}
    assert part.q >= 0.0


def test_two_cycles_match_exhaustive_enumeration():
    edges = two_cycles()
    nodes = sorted({u for e in edges for u in e})
    n_partitions = sum(1 for _ in set_partitions(nodes))
    assert n_partitions == 203  # Bell(6)
    best = brute_best_q(edges, nodes)
    part = optimize_partition(edges, seed=0, restarts=20)
    assert part.q == pytest.approx(best, abs=1e-12)
    assert groups_of(part.assignment) == [["a", "b", "c"], ["d", "e", "f"]]
    assert part.n_communities == 2


def test_optimum_on_random_6_node_graphs():
    for seed in range(8):
        edges = random_digraph(seed, n=6)
        nodes = sorted({u for e in edges for u in e})
        best = brute_best_q(edges, nodes)
        part = optimize_partition(edges, seed=0, restarts=20)
        assert part.q == pytest.approx(best, abs=1e-12), seed


def test_result_q_is_never_negative():
    # a directed star has no positive-Q split; the all-in-one candidate wins
    edges = {("hub", f"s{i}"): 1.0 for i in range(6)}
    part = optimize_partition(edges, seed=0)
    assert part.q == 0.0
    for seed in range(10):
        assert optimize_partition(random_digraph(seed, 7), seed=1).q >= 0.0


def test_planted_blocks_recovered():
    nodes = [f"n{i:02d}" for i in range(12)]
    rng = np.random.default_rng(5)
    edges = {}
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i == j:
                continue
            if i // 4 == j // 4:
                edges[(u, v)] = float(rng.uniform(8.0, 12.0))
            elif rng.random() < 0.4:
                edges[(u, v)] = float(rng.uniform(0.0, 0.2))
    part = optimize_partition(edges, seed=0, restarts=20)
    assert groups_of(part.assignment) == [nodes[0:4], nodes[4:8], nodes[8:12]]


def test_deterministic_given_seed():
    edges = random_digraph(3, n=9)
    a = optimize_partition(edges, seed=7, restarts=5)
    b = optimize_partition(edges, seed=7, restarts=5)
    assert a == b


def test_insertion_order_does_not_matter():
    edges = random_digraph(11, n=8)
    shuffled = dict(sorted(edges.items(), key=lambda kv: (kv[0][1], kv[0][0]), reverse=True))
    assert list(shuffled) != list(edges)
    a = optimize_partition(edges, seed=2, restarts=8)
    b = optimize_partition(shuffled, seed=2, restarts=8)
    assert a == b


def test_scaling_weights_changes_nothing():
    edges = random_digraph(4, n=8)
    base = optimize_partition(edges, seed=3, restarts=8)
    for factor in (0.5, 2.0, 1000.0):
        scaled = {k: w * factor for k, w in edges.items()}
        part = optimize_partition(scaled, seed=3, restarts=8)
        assert part.assignment == base.assignment
        assert part.q == pytest.approx(base.q, abs=1e-12)


def test_invalid_arguments_rejected():
    edges = {("a", "b"): 1.0}
    with pytest.raises(ValueError):
        optimize_partition(edges, seed=-1)
    with pytest.raises(ValueError):
        optimize_partition(edges, restarts=0)


# ---------------------------------------------------------------- hierarchy


def uniform_two_blocks():
    edges = {}
    for block in ("abcd", "efgh"):
        for u in block:
            for v in block:
                if u != v:
                    edges[(u, v)] = 1.0
    edges[("a", "e")] = 0.05
    edges[("e", "a")] = 0.05
    return edges


def test_structureless_communities_do_not_split():
    hierarchy = hierarchical_partition(uniform_two_blocks(), max_levels=3, seed=0)
    assert len(hierarchy.levels) == 3
    level0 = groups_of(hierarchy.levels[0].assignment)
    assert level0 == [list("abcd"), list("efgh")]
    for level in hierarchy.levels[1:]:
        assert groups_of(level.assignment) == level0


def test_nested_fixture_recovered_level_by_level():
    edges, supers, subs = nested_fixture()
    hierarchy = hierarchical_partition(edges, max_levels=3, seed=0, restarts=20)
    assert groups_of(hierarchy.levels[0].assignment) == sorted(sorted(g) for g in supers)
    assert groups_of(hierarchy.levels[1].assignment) == sorted(sorted(g) for g in subs)
    # 4-cycles are internally balanced: no further split
    assert groups_of(hierarchy.levels[2].assignment) == groups_of(hierarchy.levels[1].assignment)


def test_level_q_is_modularity_of_flattened_partition():
    edges, _, _ = nested_fixture()
    hierarchy = hierarchical_partition(edges, max_levels=2, seed=0, restarts=20)
    for level in hierarchy.levels:
        assert level.q == pytest.approx(modularity(edges, level.assignment), abs=1e-12)


def test_refinement_containment_invariant():
    """Every community at level k+1 sits inside one community at level k."""
    fixtures = [nested_fixture()[0], uniform_two_blocks(), random_digraph(9, 10)]
    for edges in fixtures:
        hierarchy = hierarchical_partition(edges, max_levels=3, seed=1, restarts=10)
        for shallow, deep in zip(hierarchy.levels, hierarchy.levels[1:]):
            for group in groups_of(deep.assignment):
                parents = {shallow.assignment[node] for node in group}
                assert len(parents) == 1


def test_parents_track_the_split_tree():
    edges, supers, subs = nested_fixture()
    hierarchy = hierarchical_partition(edges, max_levels=2, seed=0, restarts=20)
    assert hierarchy.parents[0] == {0: None, 1: None}
    level0, level1 = hierarchy.levels
    for node in edges and {u for e in edges for u in e}:
        child = level1.assignment[node]
        assert hierarchy.parents[1][child] == level0.assignment[node]


def test_max_levels_one():
    hierarchy = hierarchical_partition(two_cycles(), max_levels=1, seed=0)
    assert len(hierarchy.levels) == 1
    assert len(hierarchy.parents) == 1


def test_small_communities_are_carried_down():
    # a 2-node community cannot split (min size 3); it must persist verbatim
    edges = {("a", "b"): 5.0, ("b", "a"): 5.0, ("c", "d"): 5.0, ("d", "c"): 5.0}
    hierarchy = hierarchical_partition(edges, max_levels=2, seed=0)
    assert groups_of(hierarchy.levels[0].assignment) == [["a", "b"], ["c", "d"]]
    assert groups_of(hierarchy.levels[1].assignment) == [["a", "b"], ["c", "d"]]


# ---------------------------------------------------------------- pinned partitions


def pinned_digraph(case: int) -> dict[tuple[str, str], float]:
    """Seeded float-weighted digraph on 3..40 nodes; every fourth has self-loops.

    Weights cycle uniform, unit (exact gain ties, so the tie-breaking order
    shows) and lognormal; case 5 also holds zero-weight edges, one of them
    an otherwise isolated node's only link.
    """
    rng = np.random.default_rng([7, case])
    names = [f"v{i:02d}" for i in range(3 + case * 37 // 23)]
    density = float(rng.uniform(0.15, 0.7))
    edges = {}
    for u in names:
        for v in names:
            if (u != v or case % 4 == 0) and rng.random() < density:
                if case % 3 == 0:
                    edges[(u, v)] = float(rng.uniform(0.01, 10.0))
                elif case % 3 == 1:
                    edges[(u, v)] = 1.0
                else:
                    edges[(u, v)] = float(rng.lognormal(0.0, 1.5))
    if case == 5:
        edges[(names[0], names[1])] = 0.0
        edges[("zz", names[2])] = 0.0
    return edges


def pinned_digests() -> dict[str, str]:
    """sha256 of (sorted assignment, repr(q)) for the optimizer and each hierarchy level."""
    graphs = {f"random{case:02d}": pinned_digraph(case) for case in range(24)}
    graphs["world60"] = expected_flows(make_world(60, seed=2, n_blocks=4, block_boost=4.0))
    digests = {}
    for name, edges in graphs.items():
        best = optimize_partition(edges, seed=3, restarts=5)
        hierarchy = hierarchical_partition(edges, max_levels=3, seed=5, restarts=4)
        record = [(sorted(p.assignment.items()), repr(p.q)) for p in (best, *hierarchy.levels)]
        digests[name] = hashlib.sha256(repr(record).encode()).hexdigest()
    return digests


PINNED_DIGESTS = {
    "random00": "8f9294c8bd90c63e95cb5c1e4c63236fee47e733ceb371385dc137526740685e",
    "random01": "ae0b6345e0d5c3aa376d547520ef78a6af1c99401661a6904615575922c8b449",
    "random02": "e0ffa01cff507a8a7997dc6a10d101cd0d20f148671f16ae306e889a3817f0c7",
    "random03": "e1a6c398fcc6e994fb6259c74b015b597bba25990b830d341fd9e4d67fa3153e",
    "random04": "6f97666268b69838ee80aca6ac5695801eef71c9ca3491ed8c48e16ffeb3af5b",
    "random05": "7b201702a6625eecfc285ae53828409a5654c4c5b3a67c6ebee61fe26bdf09aa",
    "random06": "6e4ddd739cf6ece871f57aa3d3c25b9d8a98f50bcc40d07c99e7594b9ddbafc6",
    "random07": "02be16efcac092a4f8eab11b40c0c716068f7d4b1d7783ba78ca943f65a89daf",
    "random08": "b0a8b1bf6a27a5c5f0875b3401e49be83fa55d330675ac685730816fb1012f66",
    "random09": "979ed25017af17beeefc49eef3c59d439d4a9e35d7d7262e43d70766d64b5423",
    "random10": "54deb1acf5731920a427c19d7dc78cc1ee8df4d062969b63b8945c3f134d0ba6",
    "random11": "5b62d3bafec0493375713e203a5ed3dc4151526f9301a969e9c622231aabc0ad",
    "random12": "999390fdf6485d79227ba7311a1f68563a2ecf4bd34aad056bf54add4a4e2392",
    "random13": "a97fb1737551056feba34c83632f2caa83c2a210df523e8b1a6744908de109d0",
    "random14": "3160d5b5eb139d76481d2599cfda170e4f159787b301231652db19f85ddf9b8b",
    "random15": "e6e8f049c54299e1a450853d90ec5be0594e9bb89ac67fafc186c28068e543ee",
    "random16": "1014d123c8468d0ad591a02e972366d4365faf41fe31937cdbee5c28b0ff70c3",
    "random17": "2e47a69f095803188b39a980bac583cc51cbc55fb9d6b6db10d83ac106ca0460",
    "random18": "32451fa514a3472e1fff345e92926ccdcb99853a1d552584c0229ff176dea0e5",
    "random19": "7433fc5f952ca07ea9fde5fd61dd4b93c509e059122e796edc8f381814c12162",
    "random20": "3c5066b8dd8b157daa5db39a6a6bd3e63728e7144dc0f4c4d47dd036019d306d",
    "random21": "25bb8777109fdf2ff8ded66b0f513ee6a9d45d385e5ba9fae68669a85cd49bd4",
    "random22": "244a8cb9ebf6303bfea47f7ac0d5997579a20a3798ab6dcd936047668dfd2a1d",
    "random23": "8c39aed13376d7cd0180247cb82e465d312ae9d612b793d97702873404756567",
    "world60": "209a49305e4fa58b66d415a1d28814713974d3ffd6b035fec661288688a6408e",
}


def test_partitions_and_scores_are_pinned_bit_for_bit():
    """Exact assignments and q reprs, so a change in float tie-breaking or summation order shows."""
    assert pinned_digests() == PINNED_DIGESTS


# ---------------------------------------------------------------- hierarchy on one dense graph


@st.composite
def nested_digraphs(draw):
    """Seeded digraphs on 3..14 nodes, denser inside planted blocks and densest inside sub-blocks.

    Weights are unit (exact gain ties) or uniform, scaled by 10 inside a
    sub-block and 3 inside a block; self-loops occur, about one edge in
    six has weight zero, and so has every edge of about one node in eight.
    """
    n = draw(st.integers(3, 14))
    sub_block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    unit = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dead = rng.random(n) < 1 / 8
    edges = {}
    for i in range(n):
        for j in range(n):
            inside = 2 if sub_block[i] == sub_block[j] else 1 if sub_block[i] // 2 == sub_block[j] // 2 else 0
            if rng.random() < (0.2, 0.4, 0.8)[inside]:
                w = 1.0 if unit else float(rng.uniform(0.01, 1.0))
                zero = dead[i] or dead[j] or rng.random() < 1 / 6
                edges[(f"v{i:02d}", f"v{j:02d}")] = 0.0 if zero else w * (1.0, 3.0, 10.0)[inside]
    return edges


@given(
    edges=nested_digraphs(),
    isolated=st.lists(st.sampled_from(["x0", "x1", "x2"]), unique=True),
    pass_nodes=st.booleans(),
    seed=st.integers(0, 2**16),
    restarts=st.integers(1, 3),
)
def test_hierarchy_matches_dict_reference(edges, isolated, pass_nodes, seed, restarts):
    """Self-loops, zero-weight edges and isolated nodes give the dict-based hierarchy exactly."""
    assume(math.fsum(edges.values()) > 0.0)
    nodes = sorted({u for e in edges for u in e} | set(isolated)) if pass_nodes or isolated else None
    kwargs = dict(max_levels=3, seed=seed, restarts=restarts, nodes=nodes)
    got = hierarchical_partition(edges, **kwargs)
    want = reference_hierarchical_partition(edges, **kwargs)
    assert [p.assignment for p in got.levels] == [p.assignment for p in want.levels]
    assert [repr(p.q) for p in got.levels] == [repr(p.q) for p in want.levels]
    assert got.parents == want.parents


def test_hierarchy_lays_the_graph_out_once(monkeypatch):
    calls = []
    original = community._graph

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(community, "_graph", counted)
    hierarchy = hierarchical_partition(nested_fixture()[0], max_levels=3, seed=0, restarts=5)
    assert [level.n_communities for level in hierarchy.levels] == [2, 4, 4]
    assert len(calls) == 1


@pytest.mark.parametrize("max_levels", [1, 2, 3])
def test_edgeless_network_is_flat_at_every_depth(max_levels):
    edges = {("a", "b"): 0.0, ("b", "c"): 0.0, ("c", "c"): 0.0}
    hierarchy = hierarchical_partition(edges, max_levels=max_levels, nodes=["a", "b", "c", "d"])
    assert [level.assignment for level in hierarchy.levels] == [{"a": 0, "b": 0, "c": 0, "d": 0}] * max_levels
    assert [level.q for level in hierarchy.levels] == [0.0] * max_levels
    assert hierarchy.parents == [{0: None}] + [{0: 0}] * (max_levels - 1)


@given(
    entropy=st.lists(st.integers(0, 2**200), min_size=2, max_size=4),
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=4),
)
def test_visit_orders_match_numpy_streams(entropy, sizes):
    """The pure-Python streams give numpy's permutations, call after call on one generator, and its seed words.

    An odd number of 32-bit draws leaves the high half of a 64-bit draw buffered for the next call, and
    seeds past 2**96 make more than four entropy words, which mix in after the pool's cross-mix."""
    draws, rng = community._draws(entropy), np.random.default_rng(entropy)
    assert [community._permutation(draws, n) for n in sizes] == [rng.permutation(n).tolist() for n in sizes]
    assert community._seed_words(entropy, 1) == [int(np.random.SeedSequence(entropy).generate_state(1)[0])]
