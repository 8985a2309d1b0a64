import hashlib
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubequot import (
    SimpleGraph,
    are_isomorphic,
    automorphism_group,
    build_quotient,
    halved_graphs,
    is_vertex_transitive,
    min_distance,
    parse_group_text,
    triangular_graph,
    verify_isomorphism,
)
from cubequot.errors import NotBipartite, TooLarge
from cubequot.graph_core import bits_of, neighbor_table
from cubequot.iso_aut import (
    _canonical_colors,
    _class_sizes,
    _individualize,
    _invariant_values,
    _refine,
)
from cubequot.verify import _default_grid

from conftest import QUATERNION_FILE, automorphism_generators, cube_graph, folded_cube_group
from test_graph_core import kernel_graphs, reference_bfs_level_masks, table_twin
from test_quotient import sweep_oracle_groups
from test_perm_groups import chain_elements, group_from_generators


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    return SimpleGraph.from_edges(10, edges)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def test_identity_witness():
    g = cube_graph(3)
    w = are_isomorphic(g, g)
    assert w is not None and verify_isomorphism(g, g, w)


def test_relabeled_graphs_isomorphic():
    rng = random.Random(4)
    for n in (3, 4):
        g = cube_graph(n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        w = are_isomorphic(g, h)
        assert w is not None and verify_isomorphism(g, h, w)


def test_non_isomorphic_same_degree_sequence():
    k33 = SimpleGraph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    prism = SimpleGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert are_isomorphic(k33, prism) is None


def test_quaternion_halves_not_isomorphic(quaternion_group):
    Q = build_quotient(quaternion_group)
    h0, h1 = halved_graphs(Q.graph)
    assert are_isomorphic(h0, h1) is None


def test_symmetry_of_isomorphism():
    rng = random.Random(5)
    g = petersen()
    perm = list(range(10))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    w1 = are_isomorphic(g, h)
    w2 = are_isomorphic(h, g)
    assert w1 is not None and w2 is not None
    assert verify_isomorphism(g, h, w1) and verify_isomorphism(h, g, w2)


def test_verdict_independent_of_vertex_order():
    rng = random.Random(6)
    base = triangular_graph(5)
    for _ in range(5):
        p1 = list(range(base.n))
        p2 = list(range(base.n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        assert are_isomorphic(base.relabeled(p1), base.relabeled(p2)) is not None


def test_size_cap():
    with pytest.raises(TooLarge):
        are_isomorphic(
            SimpleGraph(2001, [0] * 2001), SimpleGraph(2001, [0] * 2001)
        )


def test_verify_isomorphism_rejects_bad_mappings():
    g = cube_graph(3)
    assert verify_isomorphism(g, g, list(range(8)))
    # wrong length
    assert not verify_isomorphism(g, g, list(range(7)))
    assert not verify_isomorphism(g, g, list(range(9)))
    # a repeated image: not a bijection
    assert not verify_isomorphism(g, g, [0, 1, 2, 3, 4, 5, 6, 6])
    # a bijection that sends the edge 0-1 to the non-edge 0-3
    swap = [0, 3, 2, 1, 4, 5, 6, 7]
    assert not g.has_edge(0, 3) and not verify_isomorphism(g, g, swap)
    # graphs with different numbers of vertices
    assert not verify_isomorphism(g, cube_graph(2), list(range(8)))
    assert not verify_isomorphism(cube_graph(2), g, list(range(4)))


# ---------------------------------------------------------------------------
# Oracles for the isomorphism witness
# ---------------------------------------------------------------------------


def reference_invariant_values(G):
    """The former `_invariant_values`: one untruncated mask BFS per vertex."""
    return [
        (G.degree(v), tuple(m.bit_count() for m in reference_bfs_level_masks(G, v)[1:]))
        for v in range(G.n)
    ]


def reference_verify_isomorphism(G, H, mapping):
    """The former `verify_isomorphism`: each neighbour mask walked bit by bit."""
    n = G.n
    if H.n != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    for v in range(n):
        m = 0
        for w in bits_of(G.adj[v]):
            m |= 1 << mapping[w]
        if m != H.adj[mapping[v]]:
            return False
    return True


@settings(max_examples=80, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_invariant_values_equal_the_per_vertex_search(g, rng):
    expected = reference_invariant_values(g)
    for h in (g, table_twin(g, rng)):
        assert _invariant_values(neighbor_table(h)) == expected


@settings(max_examples=80, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_table_check_rejects_a_swapped_pair_exactly_when_the_mask_check_does(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    pairs = [(g, h), (table_twin(g, rng), table_twin(h, rng))]
    for G, H in pairs:
        assert verify_isomorphism(G, H, perm)
    if g.n < 2:
        return
    for _ in range(4):
        i, j = rng.sample(range(g.n), 2)
        swapped = perm[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        expected = reference_verify_isomorphism(g, h, swapped)
        for G, H in pairs:
            assert verify_isomorphism(G, H, swapped) == expected


def test_table_check_on_quotients_with_repeated_rows():
    # not semiregular: quotient rows hold repeats and the vertex's own id
    rng = random.Random(7)
    for K in [K for K in sweep_oracle_groups() if min_distance(K) < 2]:
        G = build_quotient(K).graph
        masks = SimpleGraph(G.n, G.adj, G.labels)
        assert _invariant_values(neighbor_table(G)) == reference_invariant_values(masks)
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = masks.relabeled(perm)
        assert verify_isomorphism(G, H, perm)
        if G.n >= 2:
            i, j = rng.sample(range(G.n), 2)
            perm[i], perm[j] = perm[j], perm[i]
            assert verify_isomorphism(G, H, perm) == reference_verify_isomorphism(masks, H, perm)


def list_refine(nbrs, colors):
    """The former refinement: per-vertex sorted tuples of neighbor colors,
    ranked by sorted(set(signatures)), until a round splits no class."""
    n = len(nbrs)
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            nc = sorted(colors[w] for w in nbrs[v])
            sigs.append((colors[v], tuple(nc)))
        order = sorted(set(sigs))
        if len(order) == ncolors:
            return colors
        remap = {s: i for i, s in enumerate(order)}
        colors = [remap[s] for s in sigs]
        ncolors = len(order)


def _side_balanced(colors, n):
    """Each color class must hold equally many vertices of either graph."""
    balance = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        balance[c] += 1 if v < n else -1
    return not any(balance)


def reference_are_isomorphic(G, H):
    """The former search over the 2n-vertex disjoint union of G and H.

    Both graphs are refined together and branch in step: the smallest
    G-side vertex of the first largest class against each H-side vertex of
    that class, pruning branches whose classes are not balanced.
    """
    if G.n != H.n or G.edge_count != H.edge_count:
        return None
    if sorted(G.degrees()) != sorted(H.degrees()):
        return None
    n = G.n
    if n == 0:
        return []
    adj = list(G.adj) + [m << n for m in H.adj]
    nbrs = [list(bits_of(m)) for m in adj]
    inv = reference_invariant_values(G) + reference_invariant_values(H)
    if sorted(inv[:n]) != sorted(inv[n:]):
        return None
    colors0 = list_refine(nbrs, _canonical_colors(inv))
    if not _side_balanced(colors0, n):
        return None

    def rec(colors):
        sizes = _class_sizes(colors)
        cell, cell_size = -1, 2
        for c, s in enumerate(sizes):
            if s > cell_size:
                cell, cell_size = c, s
        if cell == -1:
            mapping = [-1] * n
            mate = {}
            for v, c in enumerate(colors):
                if c in mate:
                    mapping[mate[c]] = v - n
                else:
                    mate[c] = v
            return mapping if reference_verify_isomorphism(G, H, mapping) else None
        members = [v for v in range(2 * n) if colors[v] == cell]
        v = members[0]  # smallest G-side vertex: classes are balanced
        for w in members:
            if w < n:
                continue
            child = colors[:]
            child[v] = child[w] = max(colors) + 1
            child = list_refine(nbrs, child)
            if _side_balanced(child, n):
                found = rec(child)
                if found is not None:
                    return found
        return None

    return rec(colors0)


def _random_graph(n, p, rng):
    return SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def _to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _witness_battery():
    rng = random.Random(16)
    pairs = [(rook_4x4(), shrikhande()), (shrikhande(), _relabel(shrikhande(), rng))]
    for k in range(4, 8):
        t = triangular_graph(k)
        pairs.append((t, _relabel(t, rng)))
    groups = [folded_cube_group(6), folded_cube_group(8), parse_group_text(QUATERNION_FILE)]
    for K in groups:
        h0, h1 = halved_graphs(build_quotient(K).graph)
        pairs += [(h0, h1), (h0, _relabel(h1, rng))]
    for i in range(160):
        n = 5 + i % 9
        g = _random_graph(n, 0.4, rng)
        h = _relabel(g, rng) if rng.random() < 0.5 else _random_graph(n, 0.4, rng)
        pairs.append((g, h))
    return pairs


def test_witnesses_equal_the_disjoint_union_search():
    pairs = _witness_battery()
    isomorphic = 0
    for g, h in pairs:
        w = are_isomorphic(g, h)
        assert w == reference_are_isomorphic(g, h)
        assert (w is not None) == nx.is_isomorphic(_to_networkx(g), _to_networkx(h))
        if w is not None:
            isomorphic += 1
            assert verify_isomorphism(g, h, w)
    # both verdicts occur, so neither side of the search goes untested
    assert 0 < isomorphic < len(pairs)



# ---------------------------------------------------------------------------
# The array refinement against the list refinement
# ---------------------------------------------------------------------------


def _starting_colorings(g, raw, v):
    """All-equal, invariant, arbitrary, and one vertex individualized."""
    invariant = _canonical_colors(reference_invariant_values(g))
    refined = list_refine([g.neighbors(w) for w in range(g.n)], invariant)
    return [[0] * g.n, invariant, _canonical_colors(raw), _individualize(refined, v)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_array_refine_equals_list_refine(data):
    n = data.draw(st.integers(1, 24), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = data.draw(st.sampled_from((0.1, 0.3, 0.6, 0.9)), label="density")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="edges"))
    isolated = data.draw(st.integers(0, 3), label="isolated")
    g = SimpleGraph.from_edges(n + isolated, [e for e in pairs if rng.random() < density])
    raw = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n), label="raw")
    v = data.draw(st.integers(0, g.n - 1), label="v")
    nbrs = [g.neighbors(w) for w in range(g.n)]
    table = neighbor_table(g)
    for colors in _starting_colorings(g, raw, v):
        assert _refine(table, colors) == list_refine(nbrs, colors)


def test_array_refine_equals_list_refine_on_halves():
    # dense regular graphs with up to 256 vertices: the n=10 half has valency 45
    rng = random.Random(24)
    graphs = [petersen(), rook_4x4(), shrikhande(), SimpleGraph(1, [0])]
    for K in (folded_cube_group(8), _not_vt_group(10), parse_group_text(QUATERNION_FILE)):
        graphs += halved_graphs(build_quotient(K).graph)
    for g in graphs:
        raw = [rng.randrange(3) for _ in range(g.n)]
        nbrs = [g.neighbors(w) for w in range(g.n)]
        table = neighbor_table(g)
        for colors in _starting_colorings(g, raw, rng.randrange(g.n)):
            assert _refine(table, colors) == list_refine(nbrs, colors)


# ---------------------------------------------------------------------------
# Automorphism groups: orders against independent knowledge
# ---------------------------------------------------------------------------


def test_aut_complete_graph():
    assert automorphism_group(complete_graph(4)).order == 24


def test_aut_cubes():
    for n in (2, 3, 4):
        assert automorphism_group(cube_graph(n)).order == (1 << n) * math.factorial(n)


def test_aut_petersen():
    assert automorphism_group(petersen()).order == 120


def test_aut_triangular_graphs():
    # Aut(T_n) = S_n for n >= 5; T_4 gains the complementation of pairs
    assert automorphism_group(triangular_graph(5)).order == 120
    assert automorphism_group(triangular_graph(6)).order == 720
    assert automorphism_group(triangular_graph(4)).order == 48


def test_aut_folded_6_cube():
    Q = build_quotient(folded_cube_group(6))
    group = automorphism_group(Q.graph)
    assert group.order == (1 << 6) * math.factorial(6) // 2 == 23040


def test_bsgs_order_matches_element_enumeration():
    # groups of order <= 1e5: the Schreier-Sims order equals the number of
    # distinct elements enumerated from the stabilizer chain
    Q = build_quotient(folded_cube_group(6))
    group = automorphism_group(Q.graph)
    bsgs = group_from_generators(group.degree, group.generators)
    elements = set(chain_elements(bsgs, 10**5))
    assert len(elements) == group.order
    ident = tuple(range(group.degree))
    assert ident in elements


def _not_vt_group(n):
    from cubequot import BitVector, CubeAutomorphism, Permutation, generate_group

    return generate_group(
        [CubeAutomorphism(BitVector.all_ones(n), Permutation.from_cycles(n, [(1, 2)]))]
    )


def _grid_graphs(seed):
    """The quotients of the default sampled grid and the halves of the bipartite ones."""
    graphs = []
    for K in _default_grid(seed):
        Q = build_quotient(K).graph
        graphs.append(Q)
        try:
            graphs += halved_graphs(Q)
        except NotBipartite:
            pass
    return graphs


@pytest.mark.parametrize("seed", [0, 1])
def test_first_path_order_equals_schreier_sims_on_grid(seed):
    graphs = _grid_graphs(seed)
    assert len(graphs) > 100
    for g in graphs:
        group = automorphism_group(g)
        assert group.order == group_from_generators(g.n, group.generators).order()


def test_first_path_order_against_sympy():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    graphs = [petersen(), rook_4x4(), shrikhande(), triangular_graph(6)]
    graphs.append(build_quotient(folded_cube_group(6)).graph)
    graphs += halved_graphs(build_quotient(parse_group_text(QUATERNION_FILE)).graph)
    for g in graphs:
        group = automorphism_group(g)
        assert group.order == SymGroup([SymPerm(list(p)) for p in group.generators]).order()


def test_first_path_order_closed_forms():
    # |N_even(K)|/|K| for the folded 8-cube and for K = <(1^10, (1 2))>
    h0, _ = halved_graphs(build_quotient(folded_cube_group(8)).graph)
    assert automorphism_group(h0).order == (1 << 6) * math.factorial(8) == 2_580_480
    h0, _ = halved_graphs(build_quotient(_not_vt_group(10)).graph)
    assert automorphism_group(h0).order == 10_321_920


def test_trivial_automorphism_groups_have_order_one():
    # the empty graph, K_1, and the smallest asymmetric tree (its first
    # refinement is already discrete): an empty first path, an empty product
    tree = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    for g in (SimpleGraph(0, []), SimpleGraph(1, [0]), tree):
        group = automorphism_group(g)
        assert (group.order, group.generators) == (1, ())


def _generators_digest(g):
    return hashlib.sha256(repr(automorphism_generators(g)).encode()).hexdigest()[:16]


def test_automorphism_generators_pinned():
    # sha256 prefixes of repr(automorphism_generators(G)), recorded before the
    # isomorphism test moved onto the automorphism search; the generators
    # (and so every order and orbit computed from them) must not change
    pinned = {
        "petersen": (petersen(), 3, "07049318f9ca5841"),
        "T5": (triangular_graph(5), 4, "fb0fbe2179818fcc"),
        "folded 6-cube": (build_quotient(folded_cube_group(6)).graph, 6, "87d67011e521c961"),
        "rook 4x4": (rook_4x4(), 4, "0795311538f48725"),
        "shrikhande": (shrikhande(), 4, "a3b2e22c4f6a8ad8"),
    }
    for name, (g, count, digest) in pinned.items():
        assert (len(automorphism_generators(g)), _generators_digest(g)) == (count, digest), name


def test_every_generator_is_an_automorphism():
    g = petersen()
    group = automorphism_group(g)
    for p in group.generators:
        assert verify_isomorphism(g, g, list(p))


def test_disconnected_graph_automorphisms():
    # two disjoint edges: swap within each edge and swap the edges: order 8
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    assert automorphism_group(g).order == 8


# ---------------------------------------------------------------------------
# Vertex transitivity
# ---------------------------------------------------------------------------


def rook_4x4():
    idx = lambda i, j: 4 * i + j
    edges = set()
    for i in range(4):
        for j in range(4):
            for k in range(4):
                if k != j:
                    edges.add(tuple(sorted((idx(i, j), idx(i, k)))))
                if k != i:
                    edges.add(tuple(sorted((idx(i, j), idx(k, j)))))
    return SimpleGraph.from_edges(16, sorted(edges))


def shrikhande():
    idx = lambda i, j: 4 * i + j
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for i in range(4):
        for j in range(4):
            for di, dj in conn:
                u, v = idx(i, j), idx((i + di) % 4, (j + dj) % 4)
                edges.add((min(u, v), max(u, v)))
    return SimpleGraph.from_edges(16, sorted(edges))


def test_strongly_regular_cospectral_pair_distinguished():
    # Shrikhande vs 4x4 rook: identical strongly-regular parameters, not
    # isomorphic; exercises the exhaustive side of the search
    r, s = rook_4x4(), shrikhande()
    assert sorted(r.degrees()) == sorted(s.degrees()) == [6] * 16
    assert are_isomorphic(r, s) is None
    assert automorphism_group(r).order == 1152
    assert automorphism_group(s).order == 192


def test_asymmetric_graph_has_trivial_group():
    # smallest asymmetric tree (7 vertices)
    g = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    group = automorphism_group(g)
    assert group.order == 1 and group.generators == ()


def test_vertex_orbits_match_element_enumeration():
    tree = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    triangle_and_edge = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    star_and_cycle = SimpleGraph.from_edges(
        9, [(0, 1), (0, 2), (0, 3)] + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
    )
    graphs = [tree, path, triangle_and_edge, star_and_cycle, petersen()]
    graphs.append(build_quotient(folded_cube_group(6)).graph)
    for g in graphs:
        group = automorphism_group(g)
        elements = list(chain_elements(group_from_generators(g.n, group.generators), 10**5))
        brute = sorted({tuple(sorted({p[v] for p in elements})) for v in range(g.n)})
        assert [tuple(o) for o in group.vertex_orbits()] == brute


def test_cube_is_vertex_transitive():
    assert is_vertex_transitive(cube_graph(3))
    assert is_vertex_transitive(cube_graph(4))


def test_path_is_not_vertex_transitive():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert not is_vertex_transitive(g)


def test_linear_code_quotient_is_vertex_transitive():
    # coset graphs of binary linear codes are vertex-transitive
    from cubequot import BitVector, CubeAutomorphism, generate_group

    code = generate_group(
        [
            CubeAutomorphism.translation_by(BitVector.from_support(6, (1, 2, 3, 4, 5))),
        ]
    )
    Q = build_quotient(code)
    assert is_vertex_transitive(Q.graph)


def test_not_vt_example_quotient():
    from cubequot import BitVector, CubeAutomorphism, Permutation, generate_group, min_distance

    n = 8
    K = generate_group(
        [CubeAutomorphism(BitVector.all_ones(n), Permutation.from_cycles(n, [(1, 2)]))]
    )
    assert min_distance(K) == 6
    Q = build_quotient(K)
    assert not is_vertex_transitive(Q.graph)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9))
def test_aut_order_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    g = triangular_graph(5)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert automorphism_group(g.relabeled(perm)).order == 120
