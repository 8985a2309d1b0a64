import json
import random
import re

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
from cubequot.covering import _quadrangle_fourth
from cubequot.cube_symmetry import _GroupBuilder
from cubequot.errors import (
    DimensionTooLarge,
    InconsistentLift,
    NotCovering,
    NotRectagraph,
    QuadrangleAmbiguous,
    ReconstructionFailed,
)
from cubequot.graph_core import bits_of, is_rectagraph, neighbor_table
from cubequot.verify import (
    _default_grid,
    describe_group,
    sample_groups_with_min_distance,
    sample_subgroups,
)

from conftest import cube_graph, folded_cube_group, is_translation, same_group_as


def to_json(c: CoveringMap) -> str:
    """JSON array of 2^n target indices (index = vertex bits)."""
    return json.dumps(list(c.image)) + "\n"


def from_json(n: int, target: SimpleGraph, text: str) -> CoveringMap:
    return CoveringMap(n, target, json.loads(text))


def reference_verify_covering(c: CoveringMap) -> bool:
    """The former `verify_covering`: each vertex's neighbour images as a mask."""
    n = c.n
    image = c.image
    adj = c.target.adj
    if set(image) != set(range(c.target.n)):
        return False
    for v in range(1 << n):
        mask = 0
        for i in range(n):
            mask |= 1 << image[v ^ (1 << i)]
        if mask.bit_count() != n or mask != adj[image[v]]:  # repeated or wrong neighbor images
            return False
    return True


def reference_quadrangle_fourth(target, end1, mid, end2):
    """The former `_quadrangle_fourth`, on the target's masks."""
    common = target.adj[end1] & target.adj[end2] & ~(1 << mid)
    k = common.bit_count()
    if k != 1:
        raise QuadrangleAmbiguous(
            f"2-path ({end1}, {mid}, {end2}) has {k} completing vertices, expected 1"
        )
    return common.bit_length() - 1


def reference_lift(target, base=0, neighbor_order=None):
    """The lift that assigns images in weight order and checks every bit pair
    of each vertex against the first, then the whole map."""
    n = target.degree(base)
    nbrs = target.neighbors(base)
    neighbor_order = list(nbrs if neighbor_order is None else neighbor_order)
    size = 1 << n
    image = [-1] * size
    image[0] = base
    for i in range(n):
        image[1 << i] = neighbor_order[i]
    for y in sorted(range(size), key=lambda v: (v.bit_count(), v)):
        if y.bit_count() < 2:
            continue
        lsb = y & -y
        i = lsb.bit_length() - 1
        rest = y ^ lsb
        j = (rest & -rest).bit_length() - 1
        end1 = image[y ^ (1 << j)]
        end2 = image[y ^ (1 << i)]
        mid = image[y ^ (1 << i) ^ (1 << j)]
        image[y] = reference_quadrangle_fourth(target, end1, mid, end2)
        set_bits = list(bits_of(y))
        for a_idx, a in enumerate(set_bits):
            for b in set_bits[a_idx + 1 :]:
                if (a, b) == (i, j):
                    continue
                e1 = image[y ^ (1 << b)]
                e2 = image[y ^ (1 << a)]
                m = image[y ^ (1 << a) ^ (1 << b)]
                fourth = reference_quadrangle_fourth(target, e1, m, e2)
                if fourth != image[y]:
                    raise InconsistentLift(
                        f"bit pairs ({i},{j}) and ({a},{b}) disagree at vertex {y:#x}"
                    )
    cover = CoveringMap(n, target, image)
    if not verify_covering(cover):
        raise InconsistentLift("constructed map is not a covering")
    return cover


def gewirtz_graph() -> SimpleGraph:
    """The Gewirtz graph: a rectagraph of valency 10 on 56 vertices, which no
    cube covers (the fibres of a covering of Q_10 have equal size, and 56
    does not divide 2^10). Its vertices are the hexads of S(3,6,22) that miss
    a point, adjacent when disjoint; the hexads are the octads of the
    extended binary Golay code through two fixed points, less those points."""
    generator = sum(1 << e for e in (0, 2, 4, 5, 6, 10, 11))  # of the cyclic [23,12,7] code
    words = {0}
    for k in range(12):
        words |= {w ^ (generator << k) for w in words}
    octads = sorted(w | (w.bit_count() & 1) << 23 for w in words if w.bit_count() in (7, 8))
    blocks = [w ^ 0b11 << 21 for w in octads if (w >> 21) & 0b111 == 0b011]
    edges = [(i, j) for i in range(len(blocks)) for j in range(i) if blocks[i] & blocks[j] == 0]
    return SimpleGraph.from_edges(len(blocks), edges)


# A covering of Q_6 onto the cocktail-party graph K_{2,2,2,2} (u ~ v iff
# u xor v > 1) with fibers of 8 vertices but no deck transformation sending
# 0 to 0xe, so its deck group is not transitive on a fiber.
NON_REGULAR_IMAGE = (
    [0, 4, 5, 3, 6, 1, 2, 7, 3, 6, 7, 1, 4, 2, 0, 5, 7, 2, 1, 6, 3, 5, 4, 0, 5, 0, 2, 4, 1, 7, 6, 3]
    + [2, 7, 6, 0, 5, 3, 1, 4, 1, 5, 4, 2, 7, 0, 3, 6, 4, 1, 3, 5, 0, 6, 7, 2, 6, 3, 0, 7, 2, 4, 5, 1]
)


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


def covering_cases():
    """Natural maps of random groups (d_K from 0 to 4: repeats and
    self-entries in the quotient's rows below 3) and of groups with d_K >= 3,
    the non-regular covering, and each with two image entries of different
    vertices swapped."""
    cases = [CoveringMap(6, cocktail_party_8(), NON_REGULAR_IMAGE)]
    for n in (4, 5, 6, 8):
        groups = sample_subgroups(n, 6, random.Random(f"verify:{n}"))
        groups += sample_groups_with_min_distance(n, 3, 2, random.Random(f"verify:{n}"))
        cases += [natural_covering(build_quotient(K)) for K in groups]
    rng = random.Random(31)
    for c in list(cases):
        image = list(c.image)
        u = rng.randrange(len(image))
        w = next(w for w in range(len(image)) if image[w] != image[u])
        image[u], image[w] = image[w], image[u]
        cases.append(CoveringMap(c.n, c.target, image))
    return cases


def test_verify_covering_equals_the_mask_check():
    verdicts = [verify_covering(c) for c in covering_cases()]
    assert verdicts == [reference_verify_covering(c) for c in covering_cases()]
    half = len(verdicts) // 2
    assert any(verdicts[:half]) and not all(verdicts[:half])
    assert not any(verdicts[half:])  # every swap breaks the covering


def test_verify_covering_refuses_images_outside_the_target():
    g = cube_graph(2)
    for image in ([0, 1, 2, 4], [0, 1, 2, -1], [0, 1, 2, 2]):
        c = CoveringMap(2, g, image)
        assert verify_covering(c) is False and reference_verify_covering(c) is False


def test_natural_map_distance_two_not_covering():
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector.from_support(4, (1, 2)))]
    )
    assert min_distance(K) == 2
    assert not verify_covering(natural_covering(build_quotient(K)))


def test_covering_json_round_trip(folded8):
    Q = build_quotient(folded8)
    c = natural_covering(Q)
    text = to_json(c)
    c2 = from_json(8, Q.graph, text)
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
    assert is_translation(g) and g.translation.weight == 8


def test_deck_group_of_natural_map_is_k(quaternion_group):
    # round trip A: for semiregular K with d_K >= 3 the deck group is K itself
    for K in (quaternion_group, folded_cube_group(7)):
        Q = build_quotient(K)
        D = deck_group(natural_covering(Q))
        assert same_group_as(D, K)


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


def test_lift_matches_reference_lift_on_relabeled_quotients():
    # 24 groups with d_K >= 5, four per n = 5..10, each quotient relabeled and
    # lifted from a random base in a random neighbour order
    rng = random.Random(29)
    lifted = 0
    for n in range(5, 11):
        for K in sample_groups_with_min_distance(n, 5, 4, random.Random(f"lift:{n}")):
            G = build_quotient(K).graph
            perm = list(range(G.n))
            rng.shuffle(perm)
            G = G.relabeled(perm)
            base = rng.randrange(G.n)
            order = G.neighbors(base)
            rng.shuffle(order)
            cover = lift_covering(G, base, order)
            assert cover.image == reference_lift(G, base, order).image, describe_group(K)
            lifted += 1
    assert lifted == 24


def quadrangle_outcome(call, target, *path):
    try:
        return call(target, *path)
    except QuadrangleAmbiguous as err:
        return str(err)


def test_quadrangle_fourth_equals_the_mask_body():
    # every walk end1 - mid - end2 (end1 == end2 allowed) of graphs whose
    # 2-paths close into no, one, or several quadrangles
    k33 = SimpleGraph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    c6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    seen = set()
    for G in (cube_graph(3), k33, c6, gewirtz_graph()):
        rows = [set(row) for row in neighbor_table(G).tolist()]
        for mid in range(G.n):
            for end1 in G.neighbors(mid):
                for end2 in G.neighbors(mid):
                    got = quadrangle_outcome(_quadrangle_fourth, rows, end1, mid, end2)
                    assert got == quadrangle_outcome(reference_quadrangle_fourth, G, end1, mid, end2)
                    seen.add(re.sub(r"^2-path \(.*?\) ", "", got) if isinstance(got, str) else "one")
    # 0 on C_6; 2 on K_{3,3}, and where end1 == end2 in Q_3; 9 there in Gewirtz
    assert seen == {"one", *(f"has {k} completing vertices, expected 1" for k in (0, 2, 9))}


def test_lift_refuses_a_rectagraph_no_cube_covers():
    G = gewirtz_graph()
    assert (G.n, G.degree(0), G.is_regular(), is_rectagraph(G)) == (56, 10, True, True)
    with pytest.raises(InconsistentLift):
        reference_lift(G)
    with pytest.raises(InconsistentLift, match="not a covering"):
        lift_covering(G)


def test_deck_group_generators_are_the_greedy_pick(quaternion_group):
    # the natural covering's fiber over the orbit of 0 is {k(0)}, so its deck
    # members in fiber order are K's elements by translation
    groups = [K for K in _default_grid(0) if min_distance(K) >= 3] + [quaternion_group]
    assert len(groups) == 8
    for K in groups:
        D = deck_group(natural_covering(build_quotient(K)))
        members = sorted(K, key=lambda g: g.translation.bits)
        assert D.generators == tuple(_GroupBuilder(K.n, members).gens), describe_group(K)
        assert D.order == K.order and same_group_as(D, K)


def cocktail_party_8() -> SimpleGraph:
    return SimpleGraph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if u ^ v > 1])


def test_deck_group_refuses_a_non_regular_covering():
    cover = CoveringMap(6, cocktail_party_8(), NON_REGULAR_IMAGE)
    assert verify_covering(cover)
    with pytest.raises(ReconstructionFailed, match="y=0xe moves vertex 0x3 across fibers"):
        deck_group(cover)
