import itertools
import json
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubequot import (
    UNDEFINED,
    VACUOUS,
    CubeGroup,
    SimpleGraph,
    are_isomorphic,
    bipartite_double,
    bipartite_parts,
    build_quotient,
    distance2_graph,
    generate_group,
    halved_graphs,
    is_even,
    is_locally,
    is_locally_triangular,
    is_rectagraph,
    local_params,
    triangular_graph,
    triangular_labels,
)
from cubequot import graph_core
from cubequot.cube_symmetry import standard_generators
from cubequot.errors import (
    BadDimension,
    NotBipartite,
    NotConnected,
    PreconditionViolated,
    TooLarge,
)
from cubequot.verify import class_dist_grid, sample_subgroups

from conftest import cube_graph, folded_cube_group


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# SimpleGraph basics and serialization
# ---------------------------------------------------------------------------


def test_graph_construction_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [0b10, 0b00])


@pytest.mark.parametrize("edge", [(0, 5), (-1, 0), (0, 1.0), (True, 2), (0, "1"), (0, None)])
def test_from_edges_names_a_bad_edge_before_allocating(edge):
    with pytest.raises(ValueError, match=re.escape(f"edge {edge!r}")):
        SimpleGraph.from_edges(3, [(0, 1), edge])
    # the check comes before any per-vertex array: a million vertices cost nothing
    big = (0, 10**6) if edge == (0, 5) else edge
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"edge {big!r}")):
            SimpleGraph.from_edges(10**6, [big])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("n", [-1, 2.0, True, "3"])
def test_from_edges_refuses_a_bad_vertex_count(n):
    with pytest.raises(ValueError, match="vertex count"):
        SimpleGraph.from_edges(n, [])


@pytest.mark.parametrize("perm", [[3, 2, 1], [0, 1, 2, 5], [0, 0, 1, 2]])
def test_relabeled_rejects_a_perm_that_is_not_a_bijection(perm):
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="not a bijection"):
        g.relabeled(perm)


def test_relabeled_equals_the_checked_construction():
    rng = random.Random("relabeled")
    for n in (1, 2, 7, 30):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        labels = [f"v{v}" for v in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        g = SimpleGraph.from_edges(n, edges, labels)
        moved = [(perm[u], perm[v]) for u, v in edges]
        expected = SimpleGraph.from_edges(n, moved, [labels[perm.index(v)] for v in range(n)])
        h = g.relabeled(perm)
        assert h == expected and h.labels == expected.labels


def test_edge_list_is_lexicographic():
    g = SimpleGraph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


def test_json_round_trip_and_determinism():
    g = cube_graph(3)
    text1 = g.to_json()
    text2 = SimpleGraph.from_json_dict(json.loads(text1)).to_json()
    assert text1 == text2
    data = json.loads(text1)
    assert data["n_vertices"] == 8 and len(data["edges"]) == 12


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=30)) if u != v] if n else []
    label = st.one_of(st.none(), st.just(""), st.text(), st.sampled_from(['"', "\\", "é", "Δ\n"]))
    labels = draw(st.one_of(st.none(), st.lists(label, min_size=n, max_size=n)))
    return SimpleGraph.from_edges(n, edges, labels)


@settings(max_examples=200, deadline=None)
@given(labelled_graphs())
@example(SimpleGraph(0, []))
@example(SimpleGraph(0, [], []))
@example(SimpleGraph(3, [0, 0, 0], ["", None, '"q"']))
def test_to_json_matches_json_dumps(g):
    for h in (g, table_twin(g, random.Random(g.n))):
        assert h.to_json() == json.dumps(h.to_json_dict(), sort_keys=True, indent=2) + "\n"


def reference_render_edges(edges, item, sep):
    """`sep.join(item % (u, v) for u, v in edges)` by %-format, 4096 edges
    per format: the renderer the byte-array one replaced."""
    flat = edges.ravel().tolist()
    out = []
    for start in range(0, len(flat), 2 * 4096):
        chunk = flat[start : start + 2 * 4096]
        out.append(sep.join([item] * (len(chunk) // 2)) % tuple(chunk))
    return sep.join(out)


EDGE_TEMPLATES = [("    [\n      %d,\n      %d\n    ]", ",\n"), ("  %d -- %d;", "\n")]  # JSON, DOT
DIGIT_BOUNDARIES = sorted({0, (1 << 20) - 1} | {10**k + d for k in range(1, 7) for d in (-1, 0)})


@st.composite
def edge_arrays(draw):
    """(E, 2) id arrays: short ones, and lengths next to a multiple of the
    chunk size, their ids drawn from a few values, digit boundaries among them."""
    chunk = graph_core._RENDER_CHUNK
    near_chunks = st.builds(lambda k, d: k * chunk + d, st.integers(1, 3), st.sampled_from([-1, 0, 1]))
    length = draw(st.one_of(st.integers(0, 40), near_chunks))
    id_ = st.one_of(st.sampled_from(DIGIT_BOUNDARIES), st.integers(0, (1 << 20) - 1))
    ids = np.array(draw(st.lists(id_, min_size=1, max_size=12)), dtype=np.int64)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(ids, size=(length, 2))


@settings(max_examples=60, deadline=None)
@given(edge_arrays())
@example(np.zeros((0, 2), dtype=np.int64))
@example(np.array([[7, 10]]))
@example(np.array(list(itertools.product(DIGIT_BOUNDARIES, repeat=2))))
def test_render_edges_matches_reference(edges):
    for item, sep in EDGE_TEMPLATES:
        assert graph_core._render_edges(edges, item, sep) == reference_render_edges(edges, item, sep)


def export_quotient_groups():
    """The trivial group and a sampled one at n = 1..16, and Aut(Q_4), whose
    quotient is one vertex."""
    rng = random.Random(37)
    groups = [generate_group(standard_generators(4, even=False))]
    for n in range(1, 17):
        groups.append(CubeGroup.trivial(n))
        if n >= 3:
            groups += sample_subgroups(n, 1, rng)
    return groups


@pytest.mark.parametrize("K", export_quotient_groups(), ids=repr)
def test_quotient_to_json_matches_json_dumps(K):
    g = build_quotient(K).graph
    assert g.to_json() == json.dumps(g.to_json_dict(), sort_keys=True, indent=2) + "\n"


def table_twin(g, rng):
    """g built from a neighbour table whose rows are shuffled and padded with
    repeats and the row's own id, as a quotient by a non-semiregular group has."""
    width = max(g.degrees(), default=0) + rng.randrange(3)
    rows = []
    for v in range(g.n):
        row = g.neighbors(v)
        row += [rng.choice(row + [v]) for _ in range(width - len(row))]
        rng.shuffle(row)
        rows.append(row)
    return SimpleGraph._from_table(np.array(rows, dtype=np.int64).reshape(g.n, width), g.labels)


def export_outputs(g):
    return g.edges(), g.edge_count, g.to_json_dict(), g.to_json(), g.to_dot()


@settings(max_examples=200, deadline=None)
@given(labelled_graphs(), st.randoms(use_true_random=False))
def test_table_graph_matches_mask_graph(g, rng):
    t = table_twin(g, rng)
    assert export_outputs(t) == export_outputs(g)
    assert t._adj is None  # export reads the table alone
    assert t.adj == g.adj and t == g


def test_mask_budget_refuses_before_building(monkeypatch):
    g = table_twin(cycle_graph(64), random.Random(0))  # 64^2 / 8 = 512 bytes of masks
    monkeypatch.setattr(graph_core, "MASK_BUDGET_BYTES", 511)
    with pytest.raises(TooLarge):
        g.adj
    assert g._adj is None
    assert g.edge_count == 64 and g.to_json() == cycle_graph(64).to_json()
    monkeypatch.setattr(graph_core, "MASK_BUDGET_BYTES", 512)
    assert g.adj == cycle_graph(64).adj


def test_mask_budget_arithmetic():
    # the trivial quotients of Q_16 and Q_17: 512 MiB and 2 GiB of masks
    graph_core._check_mask_budget(1 << 16)
    with pytest.raises(TooLarge):
        graph_core._check_mask_budget(1 << 17)


@settings(max_examples=100, deadline=None)
@given(labelled_graphs(), st.randoms(use_true_random=False))
def test_derived_graphs_pass_public_validation(g, rng):
    subset = [v for v in range(g.n) if rng.random() < 0.6]
    for h in (g.induced(subset), distance2_graph(g), bipartite_double(g)):
        assert SimpleGraph(h.n, h.adj, h.labels) == h


def test_dot_output_contains_edges():
    g = SimpleGraph.from_edges(2, [(0, 1)], labels=["a", "b"])
    dot = g.to_dot()
    assert "0 -- 1;" in dot and 'label="a"' in dot
    assert dot == g.to_dot()


def test_induced_subgraph_keeps_labels():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], labels=list("abcd"))
    h = g.induced([1, 2, 3])
    assert h.labels == ("b", "c", "d")
    assert h.edges() == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# Triangular graphs
# ---------------------------------------------------------------------------


def test_triangular_graph_small():
    t2 = triangular_graph(2)
    assert t2.n == 1 and t2.edge_count == 0
    t3 = triangular_graph(3)
    assert t3.n == 3 and t3.edge_count == 3  # a triangle
    t4 = triangular_graph(4)
    # complete tripartite with parts of size 2: 6 vertices, 4-regular
    assert t4.n == 6 and t4.degrees() == [4] * 6
    from cubequot import are_isomorphic

    k3_2 = SimpleGraph.from_edges(
        6, [(i, j) for i in range(6) for j in range(i + 1, 6) if i % 3 != j % 3]
    )
    assert are_isomorphic(t4, k3_2) is not None


def test_triangular_graph_valency():
    for n in (5, 6, 8):
        t = triangular_graph(n)
        assert t.n == n * (n - 1) // 2
        assert t.degrees() == [2 * (n - 2)] * t.n


def test_triangular_graph_rejects_small_n():
    with pytest.raises(BadDimension):
        triangular_graph(1)


# ---------------------------------------------------------------------------
# Distance parameters
# ---------------------------------------------------------------------------


def test_local_params_of_cube():
    for n in (3, 4, 5):
        params = local_params(cube_graph(n), n)
        assert params[0].is_regular and params[0].valency == n
        for i in range(1, n + 1):
            assert params[i].c_value == i
            assert params[i - 1].a_value == 0


def test_local_params_complete_graph():
    # K_4: neighbors of a neighbor: c_1 = 1 (the base vertex), a_1 = 2
    params = local_params(complete_graph(4), 2)
    assert params[1].c_value == 1
    assert params[1].a_value == 2
    assert params[2].c_value is VACUOUS  # diameter 1


def test_local_params_undefined_when_varying():
    # path P_4: c_2(ends) differs from c_2 of middle pairs? a_1 is 0,
    # c_1 = 1 everywhere, but vertex degrees vary so not regular
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    params = local_params(g, 2)
    assert not params[0].is_regular
    assert params[0].valency is UNDEFINED


def test_local_params_vacuous_levels():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    params = local_params(g, 3)
    assert params[2].c_value is VACUOUS and params[3].a_value is VACUOUS


# ---------------------------------------------------------------------------
# Rectagraph recognition
# ---------------------------------------------------------------------------


def test_cube_is_rectagraph():
    assert is_rectagraph(cube_graph(3))
    assert is_rectagraph(cube_graph(5))


def test_triangle_is_not_rectagraph():
    assert not is_rectagraph(triangular_graph(3))


def test_disconnected_is_not_rectagraph():
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_rectagraph(g)


def test_quaternion_quotient_is_not_rectagraph(quaternion_group):
    # at minimum distance 4, orbits collide at distance 2 and merge
    # quadrangles: c_2 takes the values {2, 4, 6, 8}, so the quotient is
    # triangle-free but not a rectagraph
    Q = build_quotient(quaternion_group)
    params = local_params(Q.graph, 2)
    assert params[1].a_value == 0
    assert params[2].c_value is UNDEFINED
    assert not is_rectagraph(Q.graph)


# ---------------------------------------------------------------------------
# Distance-2 graph, bipartite parts, halves, double
# ---------------------------------------------------------------------------


def test_distance2_of_path():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    d2 = distance2_graph(g)
    assert d2.edges() == [(0, 2)]


def test_distance2_of_connected_bipartite_has_two_components():
    for n in (3, 4, 5):
        comps = distance2_graph(cube_graph(n)).connected_components()
        assert len(comps) == 2


def test_distance2_of_nonbipartite_is_connected():
    g = cycle_graph(5)
    assert distance2_graph(g).is_connected()


def test_bipartite_parts_of_cube():
    g = cube_graph(4)
    part0, part1 = bipartite_parts(g)
    assert 0 in part0
    assert all(bin(v).count("1") % 2 == 0 for v in part0)
    assert all(bin(v).count("1") % 2 == 1 for v in part1)


def test_bipartite_parts_odd_cycle_witness():
    with pytest.raises(NotBipartite) as err:
        bipartite_parts(cycle_graph(5))
    walk = err.value.odd_walk
    assert walk is not None and walk[0] == walk[-1] == 0
    assert (len(walk) - 1) % 2 == 1  # odd closed walk


def bipartite_oracle(G):
    """networkx: NotConnected, or the first BFS level from 0 with an edge
    inside it, or the parts by the parity of the distance from 0."""
    graph = nx.Graph()
    graph.add_nodes_from(range(G.n))
    graph.add_edges_from(G.edges())
    if not nx.is_connected(graph):
        return "not connected"
    dist = nx.single_source_shortest_path_length(graph, 0)
    odd = [dist[u] for u, v in graph.edges() if dist[u] == dist[v]]
    if odd:
        return ("not bipartite", min(odd))
    return tuple(tuple(v for v in range(G.n) if dist[v] % 2 == p) for p in (0, 1))


def test_bipartite_parts_match_networkx_on_random_graphs():
    rng = random.Random("bipartite")
    kinds = set()
    for _ in range(400):
        n = rng.randrange(1, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.5))
        if rng.randrange(2):  # a bipartite graph on a random split
            a = rng.randrange(1, n + 1)
            edges = [(u, v) for u in range(a) for v in range(a, n) if rng.random() < max(p, 0.3)]
        else:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        G = SimpleGraph.from_edges(n, edges)
        try:
            got = bipartite_parts(G)
        except NotConnected:
            got = "not connected"
        except NotBipartite as err:
            walk = err.odd_walk
            assert walk[0] == walk[-1] == 0
            assert all(G.has_edge(u, v) for u, v in zip(walk, walk[1:]))
            # an edge inside level d and a path from each end down to 0: 2d + 2 vertices
            got = ("not bipartite", (len(walk) - 2) // 2)
        assert got == bipartite_oracle(G)
        kinds.add(got if got == "not connected" else got[0] if got[0] == "not bipartite" else "parts")
    assert kinds == {"not connected", "not bipartite", "parts"}


def test_bipartite_parts_needs_connected():
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        bipartite_parts(g)


def test_halved_cube_q3_is_two_k4():
    from cubequot import are_isomorphic

    h0, h1 = halved_graphs(cube_graph(3))
    for h in (h0, h1):
        assert h.n == 4
        assert are_isomorphic(h, complete_graph(4)) is not None


def test_halved_cube_q4_is_cocktail_party():
    h0, h1 = halved_graphs(cube_graph(4))
    assert h0.n == 8 and h0.degrees() == [6] * 8
    assert h1.n == 8


def test_halved_graphs_first_contains_vertex_zero():
    g = cube_graph(4)
    h0, _ = halved_graphs(g)
    part0, _ = bipartite_parts(g)
    assert h0.n == len(part0)


def test_bipartite_double_of_single_edge_is_two_edges():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    d = bipartite_double(g)
    assert d.n == 4 and d.edge_count == 2
    assert len(d.connected_components()) == 2


def test_bipartite_double_of_nonbipartite_is_connected_bipartite():
    g = cycle_graph(5)
    d = bipartite_double(g)
    assert d.is_connected()
    bipartite_parts(d)  # must not raise


def test_bipartite_double_always_bipartite():
    for g in (complete_graph(5), cycle_graph(6), cube_graph(3)):
        d = bipartite_double(g)
        comps = d.connected_components()
        for comp in comps:
            bipartite_parts(d.induced(comp))


# ---------------------------------------------------------------------------
# Local structure
# ---------------------------------------------------------------------------


def test_k4_is_locally_k3():
    assert is_locally(complete_graph(4), complete_graph(3))


def test_cube_is_not_locally_k3():
    assert not is_locally(cube_graph(3), complete_graph(3))


def test_halved_q4_is_locally_t4():
    h0, _ = halved_graphs(cube_graph(4))
    assert is_locally(h0, triangular_graph(4))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_is_locally_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    h0, _ = halved_graphs(cube_graph(4))
    perm = list(range(h0.n))
    rng.shuffle(perm)
    assert is_locally(h0.relabeled(perm), triangular_graph(4))


# ---------------------------------------------------------------------------
# Locally triangular from star cliques, against isomorphism oracles
# ---------------------------------------------------------------------------


def seidel_switch(G, switch):
    """Toggle every adjacency between the vertex set `switch` and the rest."""
    inside = sum(1 << v for v in switch)
    outside = (1 << G.n) - 1 - inside
    adj = [row ^ (outside if (inside >> v) & 1 else inside) for v, row in enumerate(G.adj)]
    return SimpleGraph(G.n, adj)


def chang_graphs():
    """Seidel switches of T_8 on the edge sets 4K_2, C_3 + C_5 and C_8 of K_8."""
    t8 = triangular_graph(8)
    index = {tuple(int(x) for x in lbl.split(",")): v for v, lbl in enumerate(t8.labels)}

    def cycle(*pts):
        return [tuple(sorted(e)) for e in zip(pts, pts[1:] + pts[:1])]

    switch_sets = [
        [(1, 2), (3, 4), (5, 6), (7, 8)],
        cycle(1, 2, 3) + cycle(4, 5, 6, 7, 8),
        cycle(1, 2, 3, 4, 5, 6, 7, 8),
    ]
    return [seidel_switch(t8, [index[e] for e in edges]) for edges in switch_sets]


def is_line_graph_of_complete(G, m):
    """networkx oracle: the root graph of G (Whitney) is K_m."""
    X = nx.Graph(G.edges())
    X.add_nodes_from(range(G.n))
    try:
        root = nx.inverse_line_graph(X)
    except nx.NetworkXError:
        return False
    return root.number_of_nodes() == m and root.number_of_edges() == m * (m - 1) // 2


@st.composite
def relabelled_t_m_cases(draw):
    m = draw(st.integers(5, 10))
    return m, draw(st.permutations(range(m * (m - 1) // 2)))


@settings(max_examples=60, deadline=None)
@given(relabelled_t_m_cases())
def test_triangular_labels_of_relabelled_t_m_are_an_isomorphism(case):
    m, perm = case
    X = triangular_graph(m).relabeled(perm)
    labels = triangular_labels(X, m)
    assert labels is not None
    assert sorted(labels) == list(itertools.combinations(range(m), 2))
    for u, w in itertools.combinations(range(X.n), 2):
        assert X.has_edge(u, w) == bool(set(labels[u]) & set(labels[w]))


def test_triangular_labels_of_canonical_t_m_follow_its_labels():
    t6 = triangular_graph(6)
    expected = tuple(tuple(int(x) - 1 for x in lbl.split(",")) for lbl in t6.labels)
    assert triangular_labels(t6, 6) == expected


@pytest.mark.parametrize("m", range(5, 10))
def test_triangular_labels_agree_with_inverse_line_graph_on_swaps(m):
    base = nx.Graph(triangular_graph(m).edges())
    for seed in range(6):
        swapped = base.copy()
        nx.double_edge_swap(swapped, nswap=1 + seed % 3, max_tries=1000, seed=seed)
        X = SimpleGraph.from_edges(base.number_of_nodes(), swapped.edges())
        assert (triangular_labels(X, m) is not None) == is_line_graph_of_complete(X, m)
    assert is_line_graph_of_complete(triangular_graph(m), m)


def test_chang_graphs_are_rejected():
    t8 = triangular_graph(8)
    for X in chang_graphs():
        # same parameters as T_8: SRG(28, 12, 6, 4)
        params = local_params(X, 2)
        assert X.degrees() == [12] * 28
        assert (params[1].a_value, params[2].c_value) == (6, 4)
        assert triangular_labels(X, 8) is None
        assert are_isomorphic(X, t8) is None


def test_triangular_labels_needs_m_at_least_5():
    with pytest.raises(PreconditionViolated):
        triangular_labels(triangular_graph(4), 4)


def test_locally_triangular_agrees_with_is_locally_on_even_grid_halves():
    # every even group of the thm-class-dist grid at seed 0 with n >= 5:
    # 268 groups, 536 halves, d_K <= 6, so all are negative controls
    groups = [K for K in class_dist_grid(0) if is_even(K) and K.n >= 5]
    halves = 0
    for K in groups:
        for h in halved_graphs(build_quotient(K).graph):
            assert is_locally_triangular(h, K.n) == is_locally(h, triangular_graph(K.n))
            halves += 1
    assert halves == 536


@pytest.mark.parametrize(
    "n, folded, expected",
    [(6, True, False), (8, True, True), (5, False, True)],  # folded: d_K = n
)
def test_locally_triangular_agrees_with_is_locally_on_halves(n, folded, expected):
    graph = build_quotient(folded_cube_group(n)).graph if folded else cube_graph(n)
    for h in halved_graphs(graph):
        assert is_locally_triangular(h, n) is expected
        assert is_locally(h, triangular_graph(n)) is expected


def triangular_torus(k):
    """The 6-regular triangular lattice on a k x k torus: locally C_6 for k >= 4."""
    steps = [(1, 0), (0, 1), (1, -1)]
    edges = {
        tuple(sorted((i * k + j, (i + di) % k * k + (j + dj) % k)))
        for i in range(k)
        for j in range(k)
        for di, dj in steps
    }
    return SimpleGraph.from_edges(k * k, sorted(edges))


def small_n_locally_triangular_cases():
    h3, _ = halved_graphs(cube_graph(3))
    h4, _ = halved_graphs(cube_graph(4))
    perm = list(range(h4.n))
    random.Random(5).shuffle(perm)
    matching = SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    k33 = SimpleGraph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    return [
        pytest.param(2, complete_graph(2), True, id="K2-T2"),
        pytest.param(2, matching, True, id="matching-T2"),
        pytest.param(2, SimpleGraph.from_edges(3, [(0, 1), (1, 2)]), False, id="P3-T2"),
        pytest.param(3, h3, True, id="halved-Q3-T3"),
        pytest.param(3, k33, False, id="K33-T3"),  # neighbourhoods of 3, valency 0
        pytest.param(3, cube_graph(3), False, id="Q3-T3"),
        pytest.param(4, h4, True, id="halved-Q4-T4"),
        pytest.param(4, h4.relabeled(perm), True, id="relabelled-halved-Q4-T4"),
        pytest.param(4, complete_graph(7), False, id="K7-T4"),  # neighbourhoods 5-regular
        pytest.param(4, triangular_torus(4), False, id="torus-T4"),  # neighbourhoods C_6
        pytest.param(4, cube_graph(6), False, id="Q6-T4"),  # neighbourhoods edgeless
    ]


@pytest.mark.parametrize("n, graph, expected", small_n_locally_triangular_cases())
def test_locally_triangular_small_n_agrees_with_is_locally(n, graph, expected):
    assert is_locally_triangular(graph, n) is expected
    assert is_locally(graph, triangular_graph(n)) is expected


def test_locally_triangular_small_n_and_degree_mismatch():
    h3, _ = halved_graphs(cube_graph(3))
    h4, _ = halved_graphs(cube_graph(4))
    h6, _ = halved_graphs(cube_graph(6))
    assert is_locally_triangular(h3, 3) and is_locally_triangular(h4, 4)
    assert not is_locally_triangular(h6, 5)  # valency 15, T_5 has 10 vertices
    assert not is_locally_triangular(h4, 5)
    for n in (0, 1):
        with pytest.raises(BadDimension):
            is_locally_triangular(h4, n)


# ---------------------------------------------------------------------------
# The all-roots BFS kernel against the per-root mask searches it replaced
# ---------------------------------------------------------------------------


def reference_bfs_level_masks(G, start, max_level=None):
    """The former `SimpleGraph.bfs_level_masks`: a single-start traversal
    over the masks."""
    levels = [1 << start]
    seen = 1 << start
    frontier = 1 << start
    adj = G.adj
    while max_level is None or len(levels) <= max_level:
        nxt = 0
        for v in graph_core.bits_of(frontier):
            nxt |= adj[v]
        nxt &= ~seen
        if not nxt:
            break
        levels.append(nxt)
        seen |= nxt
        frontier = nxt
    return levels


def reference_local_params(G, max_level, roots=None):
    """The former `local_params`: one truncated mask BFS per root."""
    degs = G.degrees()
    regular = all(d == degs[0] for d in degs)
    valency = degs[0] if regular else UNDEFINED
    c_vals = [VACUOUS] * (max_level + 1)
    a_vals = [VACUOUS] * (max_level + 1)
    c_vals[0] = 0
    a_vals[0] = 0
    adj = G.adj
    for u in range(G.n) if roots is None else roots:
        levels = reference_bfs_level_masks(G, u, max_level)
        for i in range(1, len(levels)):
            below = levels[i - 1]
            here = levels[i]
            for v in graph_core.bits_of(here):
                c = (adj[v] & below).bit_count()
                a = (adj[v] & here).bit_count()
                for vals, x in ((c_vals, c), (a_vals, a)):
                    cur = vals[i]
                    if cur is VACUOUS:
                        vals[i] = x
                    elif cur is not UNDEFINED and cur != x:
                        vals[i] = UNDEFINED
    return [
        graph_core.LocalParams(i, c_vals[i], a_vals[i], regular, valency)
        for i in range(max_level + 1)
    ]


def reference_distance2_graph(G):
    """The former `distance2_graph`: the neighbours' masks ORed per vertex."""
    adj = []
    for v in range(G.n):
        mask = 0
        for w in graph_core.bits_of(G.adj[v]):
            mask |= G.adj[w]
        mask &= ~G.adj[v]
        mask &= ~(1 << v)
        adj.append(mask)
    return SimpleGraph(G.n, adj, G.labels)


def reference_induced(G, vertices):
    """The former `SimpleGraph.induced`, on the masks."""
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    keep = 0
    for v in verts:
        keep |= 1 << v
    adj = []
    for v in verts:
        mask = 0
        for w in graph_core.bits_of(G.adj[v] & keep):
            mask |= 1 << index[w]
        adj.append(mask)
    labels = None
    if G.labels is not None:
        labels = [G.labels[v] for v in verts]
    return SimpleGraph(len(verts), adj, labels)


def reference_relabeled(G, perm):
    """The former `SimpleGraph.relabeled`, on the masks."""
    adj = [0] * G.n
    for v in range(G.n):
        mask = 0
        for w in graph_core.bits_of(G.adj[v]):
            mask |= 1 << perm[w]
        adj[perm[v]] = mask
    labels = None
    if G.labels is not None:
        labels = [""] * G.n
        for v in range(G.n):
            labels[perm[v]] = G.labels[v]
    return SimpleGraph(G.n, adj, labels)


def reference_bipartite_double(G):
    """The former `bipartite_double`, on the masks."""
    n = G.n
    adj = [0] * (2 * n)
    for u in range(n):
        adj[u] = G.adj[u] << n
        adj[u + n] = G.adj[u]
    labels = None
    if G.labels is not None:
        labels = [f"{lbl}|0" for lbl in G.labels] + [f"{lbl}|1" for lbl in G.labels]
    return SimpleGraph(2 * n, adj, labels)


def assert_same_graph(got, expected):
    assert got == expected and got.labels == expected.labels
    assert hash(got) == hash(expected)
    assert got.adj == expected.adj


# on both sides of one and two 64-bit words of roots
KERNEL_SIZES = (0, 1, 63, 64, 65, 127, 128, 129)


@st.composite
def kernel_graphs(draw):
    """Graphs on KERNEL_SIZES vertices: edgeless, sparse (mostly disconnected),
    dense, or a union of paths and cycles."""
    n = draw(st.sampled_from(KERNEL_SIZES), label="n")
    kind = draw(st.sampled_from(("edgeless", "sparse", "dense", "paths")), label="kind")
    rng = random.Random(draw(st.integers(0, 2**32), label="edges"))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "sparse":
        edges = [e for e in pairs if rng.random() < 1.5 / n]
    elif kind == "dense":
        edges = [e for e in pairs if rng.random() < 0.3]
    elif kind == "paths":
        order = list(range(n))
        rng.shuffle(order)
        edges = []
        start = 0
        while start < n:
            piece = order[start : start + rng.randint(1, 40)]
            edges += zip(piece, piece[1:])
            if len(piece) > 2 and rng.random() < 0.5:
                edges.append((piece[-1], piece[0]))
            start += len(piece)
    else:
        edges = []
    labels = [f"v{v}" for v in range(n)] if draw(st.booleans(), label="labelled") else None
    return SimpleGraph.from_edges(n, edges, labels)


def nx_distances(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return dict(nx.all_pairs_shortest_path_length(G))


def kernel_roots(g, rng):
    """Every vertex, or a shuffled sample with repeats that crosses 64 when g can."""
    if rng.random() < 0.3:
        return None
    roots = [rng.randrange(g.n) for _ in range(rng.choice((1, 3, 64, 65, 130)))]
    return sorted(roots) if rng.random() < 0.5 else roots


@settings(max_examples=80, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_local_params_equals_the_per_root_mask_search(g, rng):
    if g.n == 0:
        with pytest.raises(ValueError):
            local_params(g, 2)
        return
    roots = kernel_roots(g, rng)
    twin = table_twin(g, rng)
    for max_level in (0, 1, 2, 4):
        expected = reference_local_params(g, max_level, roots)
        assert local_params(g, max_level, roots) == expected
        assert local_params(twin, max_level, roots) == expected
    assert twin._adj is None  # degrees and levels come from the table


@settings(max_examples=60, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_distance2_graph_equals_the_mask_loop(g, rng):
    expected = reference_distance2_graph(g)
    for h in (g, table_twin(g, rng)):
        assert_same_graph(distance2_graph(h), expected)


@settings(max_examples=60, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_table_gathers_equal_the_mask_oracles(g, rng):
    subset = [v for v in range(g.n) if rng.random() < 0.6]
    perm = list(range(g.n))
    rng.shuffle(perm)
    for h in (g, table_twin(g, rng)):
        assert_same_graph(h.induced(subset), reference_induced(g, subset))
        assert_same_graph(h.relabeled(perm), reference_relabeled(g, perm))
        assert_same_graph(bipartite_double(h), reference_bipartite_double(g))


@settings(max_examples=60, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_every_construction_gives_one_table(g, rng):
    # masks, an edge list, a shuffled table with repeats and self-entries,
    # and the identity relabelling all normalise to the same table
    twin = table_twin(g, rng)
    edges = g.edges()
    rng.shuffle(edges)
    built = [
        SimpleGraph(g.n, g.adj, g.labels),
        SimpleGraph.from_edges(g.n, edges + [(v, u) for u, v in edges], g.labels),
        twin,
        twin.relabeled(list(range(g.n))),
    ]
    for h in built:
        assert_same_graph(h, g)
        table = graph_core.neighbor_table(h)
        assert table.tolist() == graph_core.neighbor_table(g).tolist()
        assert not table.flags.writeable


@settings(max_examples=60, deadline=None)
@given(kernel_graphs(), st.randoms(use_true_random=False))
def test_kernel_levels_and_sphere_sizes_match_networkx(g, rng):
    dist = nx_distances(g)
    table = graph_core.neighbor_table(table_twin(g, rng))
    assert table.tolist() == graph_core.neighbor_table(g).tolist()
    depth = max((d for row in dist.values() for d in row.values()), default=-1)
    sizes = graph_core.sphere_sizes(table)
    assert len(sizes) == depth + 1
    for k, counts in enumerate(sizes):
        assert counts.tolist() == [
            sum(d == k for d in dist[v].values()) for v in range(g.n)
        ]
    roots = kernel_roots(g, rng) if g.n else []
    roots = list(range(g.n)) if roots is None else roots
    max_level = rng.choice((None, 0, 1, 3))
    levels = list(graph_core.bfs_levels(table, roots, max_level))
    for k, level in enumerate(levels):
        assert level.shape == (g.n, -(-len(roots) // 64))
        for v in range(g.n):
            row = int.from_bytes(level[v].astype("<u8").tobytes(), "little")
            assert row == sum(1 << j for j, r in enumerate(roots) if dist[r].get(v) == k)
    reached = max((d for r in roots for d in dist[r].values()), default=-1)
    assert len(levels) == (reached + 1 if max_level is None else min(reached, max_level) + 1)


@pytest.mark.parametrize("bad", [-1, 5, 1.0, "0", True, None])
def test_local_params_refuses_a_root_that_is_not_a_vertex(monkeypatch, bad):
    def refuse(*_):
        raise AssertionError("neighbour table built before the roots were checked")

    monkeypatch.setattr(graph_core, "neighbor_table", refuse)
    for max_level in (0, 2):
        with pytest.raises(ValueError, match="root"):
            local_params(cycle_graph(5), max_level, [0, bad])


def test_distance2_graph_checks_the_mask_budget_first(monkeypatch):
    # its output is V masks of V bits, 64^2 / 8 = 512 bytes here; local
    # parameters batch their roots and need no budget
    g = table_twin(cycle_graph(64), random.Random(1))
    expected = reference_local_params(cycle_graph(64), 2)
    monkeypatch.setattr(graph_core, "MASK_BUDGET_BYTES", 511)
    with pytest.raises(TooLarge):
        distance2_graph(g)
    assert local_params(g, 2) == expected
    assert g._adj is None
    monkeypatch.setattr(graph_core, "MASK_BUDGET_BYTES", 512)
    assert distance2_graph(g).adj == reference_distance2_graph(cycle_graph(64)).adj


def test_kernels_agree_across_many_small_batches(monkeypatch):
    # one word of roots per batch, so graphs past 64 vertices run several
    # batches
    rng = random.Random(30)
    graphs = [cycle_graph(129), complete_graph(70)]
    graphs += [
        SimpleGraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        for n, p in ((65, 0.05), (128, 0.02), (129, 0.3))
    ]
    expected = [
        (
            reference_local_params(g, 3),
            reference_local_params(g, 2, [5, 70 % g.n, 0, 64]),
            reference_distance2_graph(g).adj,
            graph_core.sphere_sizes(graph_core.neighbor_table(g)),
        )
        for g in graphs
    ]
    monkeypatch.setattr(graph_core, "_BATCH_BYTES", 1)
    for g, (params, rooted, d2, sizes) in zip(graphs, expected):
        for h in (g, table_twin(g, rng)):
            assert graph_core.neighbor_table(h).tolist() == graph_core.neighbor_table(g).tolist()
            assert local_params(h, 3) == params
            assert local_params(h, 2, [5, 70 % g.n, 0, 64]) == rooted
            assert distance2_graph(h).adj == d2
            got = graph_core.sphere_sizes(graph_core.neighbor_table(h))
            assert [s.tolist() for s in got] == [s.tolist() for s in sizes]


# ---------------------------------------------------------------------------
# Single-start searches, bipartition and star cliques against the mask
# bodies they replaced
# ---------------------------------------------------------------------------


def reference_connected_components(G):
    """The former `SimpleGraph.connected_components`: one mask BFS per
    component."""
    seen = 0
    comps = []
    for v in range(G.n):
        if (seen >> v) & 1:
            continue
        mask = 0
        for lvl in reference_bfs_level_masks(G, v):
            mask |= lvl
        seen |= mask
        comps.append(list(graph_core.bits_of(mask)))
    return comps


def reference_bipartite_parts(G):
    """The former `bipartite_parts`: the levels of a mask BFS from 0."""
    levels = reference_bfs_level_masks(G, 0)
    if sum(m.bit_count() for m in levels) != G.n:
        raise NotConnected("bipartite_parts needs a connected graph")
    adj = G.adj
    parts = [0, 0]
    for d, level in enumerate(levels):
        for u in graph_core.bits_of(level):
            inside = adj[u] & level
            if inside:
                w = (inside & -inside).bit_length() - 1
                walk_u, walk_w = [u], [w]
                for below in reversed(levels[:d]):
                    for walk in (walk_u, walk_w):
                        step = adj[walk[-1]] & below
                        walk.append((step & -step).bit_length() - 1)
                raise NotBipartite(
                    f"edge {u}-{w} joins vertices of equal color", odd_walk=walk_u[::-1] + walk_w
                )
        parts[d & 1] |= level
    return tuple(graph_core.bits_of(parts[0])), tuple(graph_core.bits_of(parts[1]))


def reference_star_labels(adj, M, m):
    """The former `_star_labels`: the vertices of mask M of a graph with the
    global masks adj."""
    if M.bit_count() != m * (m - 1) // 2:
        return None
    stars = {}
    labels = []
    for v in graph_core.bits_of(M):
        row = adj[v] & M
        if row.bit_count() != 2 * (m - 2):
            return None
        pair = []
        rest = row
        for _ in range(2):
            u = (rest & -rest).bit_length() - 1
            common = row & adj[u]
            w = common & -common  # 0 if none: adj[-1] & 0 is 0, and the size check fails
            inside = adj[w.bit_length() - 1] & common
            star = 1 << v | 1 << u | (w | inside if inside else common ^ w)
            if star.bit_count() != m - 1:
                return None
            pair.append(stars.setdefault(star, len(stars)))
            rest &= ~star
        if rest or len(stars) > m:
            return None
        labels.append((min(pair), max(pair)))
    if len(set(labels)) != len(labels):
        return None
    return labels


def reference_triangular_labels(X, m):
    """The former `triangular_labels`, on X's global masks."""
    labels = reference_star_labels(X.adj, (1 << X.n) - 1, m)
    return None if labels is None else tuple(labels)


def reference_is_locally_triangular(G, n):
    """The former `is_locally_triangular`, on G's global masks."""
    adj = G.adj
    if n <= 4:
        size, valency = n * (n - 1) // 2, 2 * (n - 2)
        return all(
            adj[v].bit_count() == size
            and all((adj[u] & adj[v]).bit_count() == valency for u in graph_core.bits_of(adj[v]))
            for v in range(G.n)
        )
    return all(reference_star_labels(adj, adj[v], n) is not None for v in range(G.n))


def outcome(call, *args):
    """A call's result, or its error's type, message and odd walk."""
    try:
        return call(*args)
    except (NotBipartite, NotConnected) as err:
        return type(err), str(err), getattr(err, "odd_walk", None)


SEARCH_SIZES = (1, 63, 64, 65, 128, 129)


@st.composite
def search_graphs(draw):
    """Graphs on SEARCH_SIZES vertices: a random spanning tree with extra
    edges between its two colour classes (bipartite) or a few anywhere
    (mostly with an odd cycle deep in the BFS), or a sparse random graph
    (mostly disconnected); vertex ids shuffled."""
    n = draw(st.sampled_from(SEARCH_SIZES), label="n")
    kind = draw(st.sampled_from(("bipartite", "odd", "sparse")), label="kind")
    rng = random.Random(draw(st.integers(0, 2**32), label="edges"))
    if kind == "sparse":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n]
    else:
        parent = [rng.randrange(max(v, 1)) for v in range(n)]
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
        edges = [(parent[v], v) for v in range(1, n)]
        for _ in range(rng.randrange(4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (kind == "odd" or (depth[u] - depth[v]) % 2):
                edges.append((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(n, edges).relabeled(perm)


@settings(max_examples=150, deadline=None)
@given(search_graphs(), st.randoms(use_true_random=False))
def test_single_start_searches_equal_the_mask_bodies(g, rng):
    twin = table_twin(g, rng)
    expected_parts = outcome(reference_bipartite_parts, g)
    expected_comps = reference_connected_components(g)
    starts = {0, g.n - 1, rng.randrange(g.n)}
    for h in (g, twin):
        assert outcome(bipartite_parts, h) == expected_parts
        assert h.connected_components() == expected_comps
        assert h.is_connected() == (len(expected_comps) == 1)
        for start in starts:
            for max_level in (None, 0, 1, 3):
                assert h.bfs_level_masks(start, max_level) == reference_bfs_level_masks(
                    g, start, max_level
                )
    assert twin._adj is None


def test_odd_walks_of_every_depth_equal_the_mask_body():
    # a spanning tree and one more edge: bipartite, or an odd walk whose
    # length depends on how deep the extra edge sits
    rng = random.Random("odd walks")
    lengths = set()
    for _ in range(300):
        n = rng.choice(SEARCH_SIZES)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        u, v = rng.randrange(n), rng.randrange(n)
        g = SimpleGraph.from_edges(n, edges + ([(u, v)] if u != v else []))
        got = outcome(bipartite_parts, g)
        assert got == outcome(reference_bipartite_parts, g)
        lengths.add(0 if isinstance(got[0], tuple) else len(got[2]) - 1)
    assert 0 in lengths and len(lengths) > 4


@settings(max_examples=40, deadline=None)
@given(relabelled_t_m_cases(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_star_labels_equal_the_global_mask_body(case, swaps, rng):
    m, perm = case
    X = triangular_graph(m).relabeled(perm)
    if swaps:
        swapped = nx.Graph(X.edges())
        nx.double_edge_swap(swapped, nswap=swaps, max_tries=1000, seed=rng.randrange(2**32))
        X = SimpleGraph.from_edges(X.n, swapped.edges())
    assert triangular_labels(X, m) == reference_triangular_labels(X, m)
    assert triangular_labels(table_twin(X, rng), m) == reference_triangular_labels(X, m)


def test_star_labels_of_the_chang_graphs_equal_the_global_mask_body():
    t8 = triangular_graph(8)
    assert triangular_labels(t8, 8) == reference_triangular_labels(t8, 8) is not None
    for X in chang_graphs():
        assert triangular_labels(X, 8) is None and reference_triangular_labels(X, 8) is None


def locally_triangular_cases():
    """Halved cubes (locally T_n), relabelled, and with one edge swap."""
    rng = random.Random("locally triangular")
    cases = []
    for n in range(2, 8):
        h, _ = halved_graphs(cube_graph(n))
        perm = list(range(h.n))
        rng.shuffle(perm)
        h = h.relabeled(perm)
        cases.append((n, h))
        if n >= 4:  # the halves of Q_2 and Q_3 are complete
            swapped = nx.Graph(h.edges())
            nx.double_edge_swap(swapped, nswap=1, max_tries=1000, seed=n)
            cases.append((n, SimpleGraph.from_edges(h.n, swapped.edges())))
    return cases


def test_locally_triangular_equals_the_global_mask_body():
    seen = set()
    for n, g in locally_triangular_cases():
        for k in {n - 1, n, n + 1} - {0, 1}:
            got = is_locally_triangular(g, k)
            assert got == reference_is_locally_triangular(g, k)
            seen.add(got)
    assert seen == {True, False}


@settings(max_examples=60, deadline=None)
@given(search_graphs(), st.integers(2, 7))
def test_locally_triangular_on_search_graphs_equals_the_global_mask_body(g, n):
    assert is_locally_triangular(g, n) == reference_is_locally_triangular(g, n)


BAD_IDS = (-1, -2, "size", True, False, 1.0, "0", None)


@pytest.mark.parametrize("bad", BAD_IDS)
def test_vertex_ids_are_checked(bad):
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])  # the path 0-1-2
    if bad == "size":
        bad = g.n
    calls = [
        lambda: g.neighbors(bad),
        lambda: g.degree(bad),
        lambda: g.has_edge(bad, 1),
        lambda: g.has_edge(1, bad),
        lambda: g.bfs_level_masks(bad),
        lambda: g.bfs_level_masks(bad, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"vertex {bad!r} is not a vertex id in 0..2")):
            call()
    assert g.neighbors(1) == [0, 2] and g.degree(0) == 1
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_the_empty_graph_has_no_bipartition():
    g = SimpleGraph.from_edges(0, [])
    for call in (bipartite_parts, halved_graphs):
        with pytest.raises(ValueError, match="^graph is empty$"):
            call(g)
    assert g.is_connected() and g.connected_components() == []
