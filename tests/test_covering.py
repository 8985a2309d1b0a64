import json
import random

import pytest

from cubequot import (
    BitVector,
    CoveringMap,
    CubeAutomorphism,
    Permutation,
    SimpleGraph,
    are_isomorphic,
    build_quotient,
    conjugate_group,
    deck_group,
    generate_group,
    lift_covering,
    min_distance,
    natural_covering,
    verify_covering,
    verify_isomorphism,
)
from cubequot.errors import DimensionTooLarge, NotCovering, NotRectagraph
from cubequot.verify import sample_subgroups

from conftest import cube_graph, folded_cube_group


def test_identity_covering():
    g = cube_graph(3)
    c = CoveringMap(3, g, list(range(8)))
    assert verify_covering(c)
    assert deck_group(c).is_trivial


def test_natural_map_covering_iff_distance_three():
    rng = random.Random(0)
    for n in (4, 5, 6):
        for K in sample_subgroups(n, 8, random.Random(f"cov:{n}")):
            Q = build_quotient(K)
            assert verify_covering(natural_covering(Q)) == (min_distance(K) >= 3)


def test_natural_map_distance_two_not_covering():
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector.from_support(4, (1, 2)))]
    )
    assert min_distance(K) == 2
    assert not verify_covering(natural_covering(build_quotient(K)))


def test_covering_json_round_trip(folded8):
    Q = build_quotient(folded8)
    c = natural_covering(Q)
    text = c.to_json()
    c2 = CoveringMap.from_json(8, Q.graph, text)
    assert c2.image == c.image
    assert json.loads(text) == list(c.image)


def test_lift_identity_on_cube():
    g = cube_graph(3)
    c = lift_covering(g, base=0)
    assert verify_covering(c)
    assert c.image == tuple(range(8))  # ascending neighbor order is e_i -> e_i


def test_lift_rejects_non_rectagraph():
    k4 = cube_graph(2)  # 4-cycle is fine; use a triangle instead
    from cubequot import SimpleGraph

    tri = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotRectagraph):
        lift_covering(tri)


def test_lift_refuses_valency_above_quotient_limit():
    # K_{m,m} is no rectagraph for m >= 3; above valency 20 the size check
    # comes first, before the 2^m image array exists
    def k_mm(m):
        return SimpleGraph.from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])

    with pytest.raises(DimensionTooLarge):
        lift_covering(k_mm(21))
    with pytest.raises(NotRectagraph):
        lift_covering(k_mm(20))


def test_lift_folded_8_cube(folded8):
    Q = build_quotient(folded8)
    cover = lift_covering(Q.graph)
    assert verify_covering(cover)
    D = deck_group(cover)
    assert D.order == 2
    g = next(D.non_identity())
    assert g.is_translation() and g.translation.weight == 8


def test_deck_group_of_natural_map_is_k(quaternion_group):
    # round trip A: for semiregular K with d_K >= 3 the deck group is K itself
    for K in (quaternion_group, folded_cube_group(7)):
        Q = build_quotient(K)
        D = deck_group(natural_covering(Q))
        assert D.same_group_as(K)


def test_deck_group_requires_covering():
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector.from_support(4, (1, 2)))]
    )
    with pytest.raises(NotCovering):
        deck_group(natural_covering(build_quotient(K)))


def test_round_trip_on_relabeled_quotient(folded8):
    # round trip B: lift a disguised quotient, rebuild, compare
    rng = random.Random(99)
    Q = build_quotient(folded8)
    perm = list(range(Q.vertex_count))
    rng.shuffle(perm)
    disguised = Q.graph.relabeled(perm)
    cover = lift_covering(disguised)
    D = deck_group(cover)
    assert D.order == 2
    rebuilt = build_quotient(D)
    w = are_isomorphic(rebuilt.graph, disguised)
    assert w is not None and verify_isomorphism(rebuilt.graph, disguised, w)


def test_lift_respects_neighbor_order(folded8):
    Q = build_quotient(folded8)
    nbrs = Q.graph.neighbors(0)
    order = list(reversed(nbrs))
    cover = lift_covering(Q.graph, base=0, neighbor_order=order)
    assert verify_covering(cover)
    for i in range(8):
        assert cover.image[1 << i] == order[i]
    with pytest.raises(ValueError):
        lift_covering(Q.graph, base=0, neighbor_order=nbrs[:-1])


def test_conjugation_diagram_commutes():
    # x^K -> (x^g)^L is an isomorphism of quotients commuting with the
    # natural maps, for L the conjugate of K
    rng = random.Random(13)
    for n in (5, 6, 7):
        for K in sample_subgroups(n, 4, random.Random(f"diag:{n}")):
            images = list(range(n))
            rng.shuffle(images)
            g = CubeAutomorphism(BitVector(n, rng.randrange(1 << n)), Permutation(images))
            L = conjugate_group(K, g)
            QK, QL = build_quotient(K), build_quotient(L)
            mapping = [-1] * QK.vertex_count
            for v in range(1 << n):
                src, dst = QK.orbit_index[v], QL.orbit_index[g.act_bits(v)]
                assert mapping[src] in (-1, dst)
                mapping[src] = dst
            assert verify_isomorphism(QK.graph, QL.graph, mapping)
