import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubequot import (
    INFINITY,
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    Permutation,
    QuotientGraph,
    SimpleGraph,
    bipartite_double,
    bipartite_parts,
    build_quotient,
    generate_group,
    min_distance,
    natural_map,
    normalizer,
    parse_group_text,
    sphere,
)
from cubequot.cube_symmetry import _add_to_span, _translation_pivots, standard_generators
from cubequot.errors import DimensionMismatch, DimensionTooLarge, GroupTooLarge, TooLarge
from cubequot.graph_core import (
    UNDEFINED,
    VACUOUS,
    bits_of,
    distance2_graph,
    local_params,
    neighbor_table,
    sphere_sizes,
)
from cubequot.quotient import normalizing_translations, quotient_params, translation_roots
from cubequot.verify import random_subgroup, sample_subgroups

from conftest import QUATERNION_FILE, cube_graph, folded_cube_group
from test_cube_symmetry import closed_elements, scan_min_distance
from test_graph_core import (
    assert_same_graph,
    reference_bfs_level_masks,
    reference_bipartite_double,
    reference_distance2_graph,
    reference_induced,
    reference_local_params,
    reference_relabeled,
    search_graphs,
)


def weight_vectors(n, w):
    out = []
    for comb in itertools.combinations(range(n), w):
        bits = 0
        for i in comb:
            bits |= 1 << i
        out.append(bits)
    return out


def test_trivial_quotient_is_cube():
    for n in (2, 3, 5):
        Q = build_quotient(CubeGroup.trivial(n))
        assert Q.vertex_count == 1 << n
        assert Q.graph.adj == cube_graph(n).adj
        assert list(Q.reps) == list(range(1 << n))


def test_folded_8_cube(folded8):
    Q = build_quotient(folded8)
    assert Q.vertex_count == 128
    assert Q.graph.edge_count == 512
    assert Q.graph.degrees() == [8] * 128


def test_quaternion_quotient_order(quaternion_group):
    Q = build_quotient(quaternion_group)
    assert Q.vertex_count == (1 << 8) // 8


def test_quotient_orbit_sizes_semiregular(quaternion_group):
    Q = build_quotient(quaternion_group)
    sizes = {}
    for v in range(1 << 8):
        sizes[Q.orbit_index[v]] = sizes.get(Q.orbit_index[v], 0) + 1
    assert set(sizes.values()) == {8}


def test_reps_sorted_and_minimal(quaternion_group):
    Q = build_quotient(quaternion_group)
    assert list(Q.reps) == sorted(Q.reps)
    for oid, rep in enumerate(Q.reps):
        members = [v for v in range(1 << 8) if Q.orbit_index[v] == oid]
        assert rep == min(members)


def test_quotient_labels_are_rep_bitstrings(quaternion_group):
    Q = build_quotient(quaternion_group)
    assert Q.graph.labels[Q.orbit_index[0]] == "0" * 8
    assert Q.graph.labels[0] == BitVector(8, Q.reps[0]).to_string()


def test_natural_map_constant_on_orbits(quaternion_group):
    Q = build_quotient(quaternion_group)
    rng = random.Random(0)
    for _ in range(50):
        v = rng.randrange(1 << 8)
        for k in quaternion_group:
            assert Q.orbit_index[k.act_bits(v)] == Q.orbit_index[v]
    assert natural_map(Q, BitVector.zero(8)) == Q.orbit_index[0]
    with pytest.raises(DimensionMismatch):
        natural_map(Q, BitVector.zero(5))


def sweep_oracle(K):
    """The ascending pure-Python orbit sweep over the key closure of K's
    generators: reps, orbit ids, adjacency, labels."""
    n = K.n
    elements = closed_elements(K)
    orbit_index = [-1] * (1 << n)
    reps = []
    for v in range(1 << n):
        if orbit_index[v] != -1:
            continue
        for g in elements:
            orbit_index[g.act_bits(v)] = len(reps)
        reps.append(v)
    adj = [0] * len(reps)
    for v in range(1 << n):
        a = orbit_index[v]
        for i in range(n):
            b = orbit_index[v ^ (1 << i)]
            if a != b:
                adj[a] |= 1 << b
    labels = [BitVector(n, r).to_string() for r in reps]
    return reps, orbit_index, adj, labels


def sweep_oracle_groups():
    groups = []
    for n in range(3, 11):
        groups.extend(sample_subgroups(n, 4, random.Random(200 + n)))
        groups.append(CubeGroup.trivial(n))
    # the last one has order 256 from 8 generators
    even9 = [(i, 9) for i in range(1, 9)]
    translations = (
        (3, [(1, 2, 3)]),
        (6, [(1, 2), (3, 4, 5)]),
        (9, [(1, 2, 3, 4, 5, 6, 7)]),
        (9, even9),
    )
    for n, supports in translations:
        gens = [CubeAutomorphism.translation_by(BitVector.from_support(n, s)) for s in supports]
        groups.append(generate_group(gens))
    def element(n, cycles, support=()):
        return CubeAutomorphism(BitVector.from_support(n, support), Permutation.from_cycles(n, cycles))

    # not semiregular: fixed vertices, and orbits {v, v + e_1} that are cube edges
    groups.append(generate_group([element(5, [(1, 2)])]))
    groups.append(generate_group([element(5, [], [1])]))
    groups.append(generate_group([element(6, [(2, 3)], [1]), element(6, [(4, 5, 6)])]))
    # 1440 elements, not semiregular
    s6 = [element(8, [(1, 2)]), element(8, [(1, 2, 3, 4, 5, 6)]), element(8, [], [7, 8])]
    groups.append(generate_group(s6))
    # many elements and few orbits: Aut(Q_n) (one orbit) and its even subgroup
    # (the even- and odd-weight vertices)
    for n in range(3, 7):
        for even in (False, True):
            groups.append(generate_group(standard_generators(n, even=even)))
    return groups


@pytest.mark.parametrize("K", sweep_oracle_groups(), ids=repr)
def test_build_quotient_matches_sweep_oracle(K):
    Q = build_quotient(K)
    reps, orbit_index, adj, labels = sweep_oracle(K)
    assert list(Q.reps) == reps
    assert list(Q.orbit_index) == orbit_index
    assert list(Q.graph.adj) == adj
    assert list(Q.graph.labels) == labels
    assert SimpleGraph(Q.graph.n, Q.graph.adj, Q.graph.labels) == Q.graph


def quotient_data(Q):
    return list(Q.reps), list(Q.orbit_index), list(Q.graph.adj), list(Q.graph.labels)


@pytest.mark.parametrize("order,seed", [(2, 0), (2, 1), (4, 0), (4, 1)])
def test_quotient_of_unlisted_normalizer_matches_closed_group(order, seed):
    # normalizer(..., cap=1) refuses to list its elements, so a quotient that
    # needed them would raise; it is built from the generators alone
    rng = random.Random(f"unlisted:{order}:{seed}")
    K = random_subgroup(rng.choice((5, 6, 7)), order, rng)
    N = normalizer(K, "full", cap=1)
    with pytest.raises(GroupTooLarge):
        N.elements
    closed = generate_group(N.generators)
    elements = closed_elements(N)
    assert len(elements) == N.order
    assert quotient_data(build_quotient(N)) == quotient_data(build_quotient(closed))
    # distance data from the Schreier walk, against the key closure's scan
    assert min_distance(N) == scan_min_distance(elements)
    assert quotient_params(build_quotient(N), 3) == quotient_params(build_quotient(closed), 3)


def test_distance_data_of_the_folded_8_normalizer_need_no_list(monkeypatch):
    # the normalizer of the folded 8-cube is Aut(Q_8), of order 10,321,920
    K = folded_cube_group(8)
    N = normalizer(K, "full", cap=1)
    assert N.order == (1 << 8) * 40320

    def no_list(*args, **kwargs):
        raise AssertionError("element list built")

    monkeypatch.setattr(CubeGroup, "elements", property(no_list))
    assert min_distance(N) == 0
    params = quotient_params(build_quotient(N), 2)
    assert [p.level for p in params] == [0, 1, 2] and params[0].valency == 0


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        build_quotient(CubeGroup.trivial(21))


def test_degenerate_group_allowed():
    # semiregularity is not required; a vertex-fixing group yields orbits
    # of unequal size and a buildable quotient
    from cubequot import Permutation

    K = generate_group(
        [CubeAutomorphism(BitVector.zero(4), Permutation.from_cycles(4, [(1, 2)]))]
    )
    assert min_distance(K) == 0
    Q = build_quotient(K)
    sizes = {}
    for v in range(16):
        sizes[Q.orbit_index[v]] = sizes.get(Q.orbit_index[v], 0) + 1
    assert set(sizes.values()) == {1, 2}
    assert Q.vertex_count == 12  # 8 fixed vertices + 4 swapped pairs


def test_sphere_level_zero(quaternion_group):
    Q = build_quotient(quaternion_group)
    base = Q.orbit_index[0]
    assert sphere(Q, base, 0) == (base,)


def test_sphere_beyond_diameter_is_empty(quaternion_group):
    Q = build_quotient(quaternion_group)
    assert sphere(Q, Q.orbit_index[0], 99) == ()
    with pytest.raises(ValueError):
        sphere(Q, 0, -1)


def reference_sphere(Q, base, level):
    """The former `sphere`: a level of the single-start mask BFS."""
    if level < 0:
        raise ValueError("level must be non-negative")
    masks = reference_bfs_level_masks(Q.graph, base, level)
    if level >= len(masks):
        return ()
    return tuple(bits_of(masks[level]))


@pytest.mark.parametrize("K", sweep_oracle_groups(), ids=repr)
def test_sphere_equals_the_mask_body(K):
    Q = build_quotient(K)
    for base in {0, Q.vertex_count // 2, Q.vertex_count - 1}:
        for level in range(K.n + 2):
            assert sphere(Q, base, level) == reference_sphere(Q, base, level)


@settings(max_examples=60, deadline=None)
@given(search_graphs(), st.randoms(use_true_random=False))
def test_sphere_on_search_graphs_equals_the_mask_body(g, rng):
    # sphere reads the quotient's graph alone, so the other fields are placeholders
    Q = QuotientGraph(1, CubeGroup.trivial(1), range(g.n), [], g)
    base = rng.randrange(g.n)
    for level in (0, 1, 2, 5, g.n):
        assert sphere(Q, base, level) == reference_sphere(Q, base, level)


@pytest.mark.parametrize("bad", [-1, 8, True, 1.0, None])
def test_sphere_checks_the_base(bad):
    Q = build_quotient(CubeGroup.trivial(3))
    with pytest.raises(ValueError, match=re.escape(f"vertex {bad!r} is not a vertex id in 0..7")):
        sphere(Q, bad, 1)


def test_quaternion_sphere_sizes(quaternion_group):
    Q = build_quotient(quaternion_group)
    assert len(sphere(Q, Q.orbit_index[0], 2)) == 13
    assert len(sphere(Q, Q.orbit_index[1], 2)) == 14


# ---------------------------------------------------------------------------
# Distance-parameter invariants on sampled groups
# ---------------------------------------------------------------------------


def _sampled_groups(seed, per_n=5, ns=(4, 5, 6, 7)):
    groups = []
    for n in ns:
        groups.extend(sample_subgroups(n, per_n, random.Random(f"{seed}:{n}")))
    return groups


def test_sphere_containment_in_weight_classes():
    # vertices at distance l from x^K are reachable by weight-l steps
    rng = random.Random(1)
    for K in _sampled_groups(1):
        Q = build_quotient(K)
        for _ in range(3):
            x = rng.randrange(1 << K.n)
            for level in (1, 2, 3):
                ball = set(sphere(Q, Q.orbit_index[x], level))
                reach = {Q.orbit_index[x ^ e] for e in weight_vectors(K.n, level)}
                assert ball <= reach


def test_sphere_equality_when_distance_large():
    rng = random.Random(2)
    for K in _sampled_groups(2):
        d = min_distance(K)
        Q = build_quotient(K)
        max_level = 3 if d is INFINITY else min(3, int(d) // 2)
        for level in range(1, max_level + 1):
            x = rng.randrange(1 << K.n)
            ball = set(sphere(Q, Q.orbit_index[x], level))
            reach = {Q.orbit_index[x ^ e] for e in weight_vectors(K.n, level)}
            assert ball == reach


def test_orbit_collisions_respect_min_distance():
    for K in _sampled_groups(3):
        d = min_distance(K)
        if d is INFINITY:
            continue
        Q = build_quotient(K)
        orbits = {}
        for v in range(1 << K.n):
            orbits.setdefault(Q.orbit_index[v], []).append(v)
        for members in orbits.values():
            for a, b in itertools.combinations(members, 2):
                assert bin(a ^ b).count("1") >= d


def test_quotient_contains_cycle_of_length_d():
    # witness construction: project a geodesic from x to its image
    from cubequot import element_min_distance

    for K in _sampled_groups(4):
        d = min_distance(K)
        if not 3 <= d < INFINITY:
            continue
        Q = build_quotient(K)
        x = k = None
        for g in K.non_identity():
            if element_min_distance(g) == d:
                for v in range(1 << K.n):
                    if bin(v ^ g.act_bits(v)).count("1") == d:
                        x, k = v, g
                        break
                break
        walk = [x]
        cur = x
        diff = x ^ k.act_bits(x)
        for i in range(K.n):
            if (diff >> i) & 1:
                cur ^= 1 << i
                walk.append(cur)
        ids = [Q.orbit_index[v] for v in walk]
        assert ids[0] == ids[-1]
        assert len(set(ids[:-1])) == d
        assert all(Q.graph.has_edge(ids[i], ids[i + 1]) for i in range(len(ids) - 1))


def test_sphere_sizes_binomial_when_distance_large(folded8):
    # regular valency n with the cube-like parameters up to level l forces
    # sphere sizes C(n, l); the folded 8-cube has them up to level 3
    Q = build_quotient(folded8)
    import math

    for u in range(Q.vertex_count):
        masks = Q.graph.bfs_level_masks(u)
        for level in (1, 2, 3):
            assert masks[level].bit_count() == math.comb(8, level)


def test_halves_partition_and_connected(folded8):
    from cubequot import halved_graphs

    Q = build_quotient(folded8)
    h0, h1 = halved_graphs(Q.graph)
    assert h0.n + h1.n == Q.vertex_count
    assert h0.is_connected() and h1.is_connected()


def test_valency_m_example():
    # even-weight translations on the trailing coordinates: the quotient is
    # a smaller cube of valency m although the minimum distance is only 2
    from cubequot import verify_isomorphism
    from cubequot.graph_core import local_params, VACUOUS

    for m, n in ((2, 4), (3, 5), (3, 6)):
        gens = [
            CubeAutomorphism.translation_by(BitVector.from_support(n, (i, i + 1)))
            for i in range(m, n)
        ]
        K = generate_group(gens)
        assert K.order == 1 << (n - m)
        assert min_distance(K) == 2
        Q = build_quotient(K)
        assert Q.vertex_count == 1 << m
        mapping = [Q.orbit_index[x] for x in range(1 << m)]
        assert verify_isomorphism(cube_graph(m), Q.graph, mapping)
        params = local_params(Q.graph, m)
        assert params[0].valency == m
        for i in range(1, m + 1):
            assert params[i].c_value in (i, VACUOUS)
            assert params[i - 1].a_value in (0, VACUOUS)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_class_dist_equivalence_random(seed):
    from cubequot.verify import has_cube_local_structure

    rng = random.Random(seed)
    n = rng.choice((5, 6, 7, 8))
    K = random_subgroup(n, rng.choice((2, 4, 8)), rng)
    Q = build_quotient(K)
    d = min_distance(K)
    for level in (1, 2, 3):
        assert has_cube_local_structure(Q, level) == (d >= 2 * level + 1)


# ---------------------------------------------------------------------------
# Translation roots and the truncated distance-parameter kernel
# ---------------------------------------------------------------------------


def full_params_oracle(G, max_level):
    """c_i/a_i value sets from an untruncated BFS at every vertex."""
    c_vals = [set() for _ in range(max_level + 1)]
    a_vals = [set() for _ in range(max_level + 1)]
    for u in range(G.n):
        levels = reference_bfs_level_masks(G, u)
        for i in range(1, min(max_level, len(levels) - 1) + 1):
            for v in range(G.n):
                if (levels[i] >> v) & 1:
                    c_vals[i].add((G.adj[v] & levels[i - 1]).bit_count())
                    a_vals[i].add((G.adj[v] & levels[i]).bit_count())

    def summarize(vals):
        if not vals:
            return VACUOUS
        return vals.pop() if len(vals) == 1 else UNDEFINED

    return [
        (0, 0) if i == 0 else (summarize(c_vals[i]), summarize(a_vals[i]))
        for i in range(max_level + 1)
    ]


def span_of(basis):
    out = {0}
    for v in basis:
        out |= {x ^ v for x in out}
    return out


def oracle_groups():
    groups = []
    for n in range(4, 10):
        groups.extend(sample_subgroups(n, 6, random.Random(100 + n)))
    for n, supports in ((6, [(1, 2, 3)]), (7, [(1, 2), (3, 4, 5)]), (8, [tuple(range(1, 9))])):
        gens = [CubeAutomorphism.translation_by(BitVector.from_support(n, s)) for s in supports]
        groups.append(generate_group(gens))
    groups.append(CubeGroup.trivial(5))
    return groups


def stack_search_roots(Q):
    """One root per orbit of Y_0 modulo T, by a search from each unseen orbit."""
    span = _translation_pivots(Q.group)
    moves = [y for y in normalizing_translations(Q.group) if _add_to_span(y, span)]
    reps, index = Q.reps, Q.orbit_index
    seen = [False] * len(reps)
    roots = []
    for root in range(len(reps)):
        if seen[root]:
            continue
        roots.append(root)
        seen[root] = True
        stack = [root]
        while stack:
            r = reps[stack.pop()]
            for y in moves:
                b = index[r ^ y]
                if not seen[b]:
                    seen[b] = True
                    stack.append(b)
    return roots


@pytest.mark.parametrize("K", oracle_groups(), ids=repr)
def test_translation_roots_match_stack_search(K):
    Q = build_quotient(K)
    assert translation_roots(Q) == stack_search_roots(Q)


@pytest.mark.parametrize("K", oracle_groups(), ids=repr)
def test_rooted_params_match_untruncated_oracle(K):
    Q = build_quotient(K)
    roots = translation_roots(Q)
    assert roots == sorted(set(roots)) and roots[0] == 0
    rows = local_params(Q.graph, 4, roots=roots)
    assert [(r.c_value, r.a_value) for r in rows] == full_params_oracle(Q.graph, 4)
    assert rows == local_params(Q.graph, 4)


def test_truncated_bfs_is_a_prefix(quaternion_group):
    G = build_quotient(quaternion_group).graph
    for u in (0, 5, 17):
        full = G.bfs_level_masks(u)
        for level in range(len(full) + 2):
            assert G.bfs_level_masks(u, level) == full[: level + 1]


def test_normalizing_translations_match_brute_force():
    rng = random.Random(3)
    for n in range(3, 9):
        for K in sample_subgroups(n, 6, rng) + [CubeGroup.trivial(n)]:
            T = {g.translation.bits for g in closed_elements(K) if g.perm.is_identity()}
            brute = {
                y
                for y in range(1 << n)
                if all(g.perm.apply_bits(y) ^ y in T for g in K.generators)
            }
            basis = normalizing_translations(K)
            assert len(span_of(basis)) == 1 << len(basis)  # independent
            assert span_of(basis) == brute


def test_translation_group_has_one_root(folded8):
    for K in (folded8, CubeGroup.trivial(6)):
        assert translation_roots(build_quotient(K)) == [0]


def test_quaternion_roots_separate_sphere_sizes(quaternion_group):
    # the spheres of radius 2 have sizes 13 and 14, so no automorphism maps
    # orbit 0 to orbit 1 and they need separate roots
    Q = build_quotient(quaternion_group)
    roots = translation_roots(Q)
    sizes = {len(sphere(Q, r, 2)) for r in roots}
    assert sizes == {13, 14}
    assert quotient_params(Q, 3) == local_params(Q.graph, 3)


# ---------------------------------------------------------------------------
# The neighbour table: export without masks, masks on first read
# ---------------------------------------------------------------------------


def export_oracle_groups():
    groups = []
    for n in range(3, 16):
        groups.extend(sample_subgroups(n, 3 if n <= 12 else 1, random.Random(500 + n)))
    groups += [parse_group_text(QUATERNION_FILE), folded_cube_group(8)]
    # not semiregular: rows hold repeats and the vertex's own id
    groups += [K for K in sweep_oracle_groups() if min_distance(K) < 2]
    return groups


def export_outputs(G):
    return G.edges(), G.edge_count, G.to_json(), G.to_dot()


@pytest.mark.parametrize("K", export_oracle_groups(), ids=repr)
def test_table_export_matches_mask_path(K):
    G = build_quotient(K).graph
    table_outputs = export_outputs(G)
    masks = SimpleGraph(G.n, G.adj, G.labels)
    assert masks == G and hash(masks) == hash(G)
    assert table_outputs == export_outputs(masks)


def test_one_vertex_quotient_has_no_edges():
    G = build_quotient(generate_group(standard_generators(3, even=False))).graph
    assert G.n == 1 and G.edges() == [] and G.edge_count == 0
    assert json.loads(G.to_json())["edges"] == []
    assert G.to_dot() == 'graph G {\n  0 [label="000"];\n}\n'
    assert G.adj == (0,)


def test_export_leaves_masks_unbuilt(quaternion_group, folded8):
    for K in (quaternion_group, folded8, CubeGroup.trivial(9)):
        G = build_quotient(K).graph
        G.to_json()
        G.to_dot()
        G.to_json_dict()
        G.bfs_level_masks(0)
        assert G._adj is None  # a view on the table kernel
        G.adj
        assert G._adj is not None


@pytest.mark.parametrize(
    "K", [K for K in sweep_oracle_groups() if min_distance(K) <= 2], ids=repr
)
def test_table_kernels_match_mask_oracles_on_degenerate_quotients(K):
    # d_K <= 2: rows hold repeats, and below 2 the vertex's own id
    G = build_quotient(K).graph
    rows = [local_params(G, level) for level in (1, 2, 3)]
    sizes = [s.tolist() for s in sphere_sizes(neighbor_table(G))]
    assert G._adj is None  # the table kernels build no masks
    masks = SimpleGraph(G.n, G.adj, G.labels)
    assert rows == [reference_local_params(masks, level) for level in (1, 2, 3)]
    assert_same_graph(distance2_graph(G), reference_distance2_graph(masks))
    subset = list(range(0, G.n, 2))
    perm = list(range(G.n))
    random.Random(G.n).shuffle(perm)
    assert_same_graph(G.induced(subset), reference_induced(masks, subset))
    assert_same_graph(G.relabeled(perm), reference_relabeled(masks, perm))
    assert_same_graph(bipartite_double(G), reference_bipartite_double(masks))
    for u in range(G.n):
        spheres = reference_bfs_level_masks(masks, u)
        assert [s[u] for s in sizes] == [m.bit_count() for m in spheres] + [0] * (
            len(sizes) - len(spheres)
        )


def test_trivial_quotient_of_q17_refuses_masks_before_building():
    # 2^17 vertices need 2 GiB of masks, over the budget; the export needs none
    Q = build_quotient(CubeGroup.trivial(17))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            Q.graph.adj
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert Q.graph._adj is None
    assert Q.graph.edge_count == 17 << 16


def test_trivial_quotient_of_q17_answers_from_its_table():
    # identity, degrees, neighbours and edges read the table, not the masks
    G = build_quotient(CubeGroup.trivial(17)).graph
    assert hash(G) == hash(G) and G == G
    assert G.degree(0) == 17 and G.is_regular()
    assert G.neighbors(5) == sorted(5 ^ (1 << i) for i in range(17))
    assert G.has_edge(5, 4) and not G.has_edge(5, 6)
    assert G._adj is None


def test_trivial_quotient_of_q17_searches_from_its_table():
    # single-start searches and components run the table kernel, not masks
    Q = build_quotient(CubeGroup.trivial(17))
    G = Q.graph
    assert sphere(Q, 0, 2) == tuple(sorted((1 << i) | (1 << j) for i in range(17) for j in range(i)))
    assert G.is_connected()
    parts = bipartite_parts(G)
    assert parts[0][:3] == (0, 3, 5) and len(parts[0]) == len(parts[1]) == 1 << 16
    assert [len(c) for c in G.connected_components()] == [1 << 17]
    assert G._adj is None


def check_matrix_code(n, r):
    """Generators of the translation code {x : Hx = 0}, H = [I_r | A] with the
    columns of A distinct r-bit vectors of weight 2 and 3. H's columns are
    distinct and nonzero, so the code has minimum distance 3 and dimension n - r."""
    columns = [c for c in range(1 << r) if c.bit_count() in (2, 3)][: n - r]
    return [(1 << (r + j)) | c for j, c in enumerate(columns)]


@pytest.mark.parametrize("n", [18, 19, 20])
def test_large_translation_quotients_without_closing_k(n):
    r = 10
    words = check_matrix_code(n, r)
    span = [0]
    for w in words:
        span += [x ^ w for x in span]
    assert min(x.bit_count() for x in span[1:]) == 3  # d_K
    gens = [CubeAutomorphism.translation_by(BitVector(n, w)) for w in words]
    K = CubeGroup(n, gens, len(span), cap=1)  # cap=1: K's elements are never listed
    Q = build_quotient(K)
    assert Q.vertex_count == (1 << n) // len(span) == 1 << r
    assert Q.graph.degrees() == [n] * (1 << r)
    again = SimpleGraph.from_json_dict(json.loads(Q.graph.to_json()))
    assert again.adj == Q.graph.adj and again.labels == Q.graph.labels
