import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubequot import (
    INFINITY,
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    Permutation,
    act,
    conjugate_group,
    element_min_distance,
    format_group_text,
    generate_group,
    intersect_even,
    is_even,
    is_semiregular,
    min_distance,
    normalizer,
    parse_group_text,
)
from cubequot.cube_symmetry import _monomial_perm, standard_generators
from cubequot.errors import (
    DimensionMismatch,
    GroupTooLarge,
    IdentityElement,
    ParseError,
)
from cubequot.verify import random_involution, random_subgroup, sample_subgroups

from conftest import QUATERNION_FILE, brute_element_distance, folded_cube_group


def random_element(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return CubeAutomorphism(BitVector(n, rng.randrange(1 << n)), Permutation(images))


# ---------------------------------------------------------------------------
# BitVector and Permutation basics
# ---------------------------------------------------------------------------


def test_bitvector_string_round_trip():
    v = BitVector.from_string("11110000")
    assert v.support() == (1, 2, 3, 4)
    assert v.to_string() == "11110000"
    assert v.weight == 4
    assert (v ^ v).bits == 0


def test_bitvector_rejects_out_of_range_bits():
    with pytest.raises(Exception):
        BitVector(3, 0b1000)


def test_permutation_cycles_round_trip():
    p = Permutation.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    assert p.cycle_string() == "(1 5)(2 6)(3 7)(4 8)"
    assert p.image_of(1) == 5 and p.image_of(5) == 1
    assert p.compose(p).is_identity()
    assert Permutation.identity(4).cycle_string() == "id"


def test_permutation_fixed_points():
    p = Permutation.from_cycles(5, [(1, 2)])
    assert p.fixed_points() == (3, 4, 5)


# ---------------------------------------------------------------------------
# Action and composition
# ---------------------------------------------------------------------------


def test_act_pure_translation():
    g = CubeAutomorphism.translation_by(BitVector.from_string("1010"))
    v = BitVector.from_string("1100")
    assert act(g, v).to_string() == "0110"


def test_act_moves_unit_step_along_permuted_coordinate():
    # if x is fixed by g, then x + e_i maps to x^g + e_{i^sigma}
    n = 6
    rng = random.Random(5)
    for _ in range(50):
        g = random_element(n, rng)
        for x in range(1 << n):
            if g.act_bits(x) == x:
                for i in range(n):
                    img = g.act_bits(x ^ (1 << i))
                    assert img == x ^ (1 << g.perm.images[i])
                break


def test_act_on_zero_gives_translation_part():
    K = parse_group_text(QUATERNION_FILE)
    g = K.generators[0]
    assert act(g, BitVector.zero(8)) == g.translation


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**9))
def test_right_action_law(n, seed):
    rng = random.Random(seed)
    g, h = random_element(n, rng), random_element(n, rng)
    v = BitVector(n, rng.randrange(1 << n))
    assert act(g.compose(h), v) == act(h, act(g, v))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**9))
def test_compose_inverse_is_identity(n, seed):
    rng = random.Random(seed)
    g = random_element(n, rng)
    assert g.compose(g.inverse()).is_identity()
    assert g.inverse().compose(g).is_identity()


# ---------------------------------------------------------------------------
# Group generation
# ---------------------------------------------------------------------------


def test_generate_group_empty_is_trivial():
    K = generate_group([], n=6)
    assert K.order == 1 and K.is_trivial


def test_generate_group_quaternion(quaternion_group):
    K = quaternion_group
    assert K.order == 8
    # order 8, non-abelian, a single element of order 2: the quaternion group
    a, b = K.generators
    assert a.compose(b) != b.compose(a)
    assert sum(1 for g in K.non_identity() if g.compose(g).is_identity()) == 1


def test_generate_group_involution():
    K = generate_group([CubeAutomorphism.translation_by(BitVector.all_ones(8))])
    assert K.order == 2


def test_generate_group_cap():
    gens = [
        CubeAutomorphism.translation_by(BitVector.from_support(6, (i,)))
        for i in range(1, 7)
    ]
    with pytest.raises(GroupTooLarge):
        generate_group(gens, cap=10)


def test_generate_group_dimension_mismatch():
    g1 = CubeAutomorphism.identity(4)
    g2 = CubeAutomorphism.identity(5)
    with pytest.raises(DimensionMismatch):
        generate_group([g1, g2])


def test_element_order_divides_group_order(quaternion_group):
    for g in quaternion_group:
        assert quaternion_group.order % g.order() == 0


# ---------------------------------------------------------------------------
# Minimum distance
# ---------------------------------------------------------------------------


def test_element_distance_of_translation_is_weight():
    for n in (3, 5, 8):
        for bits in (1, 3, (1 << n) - 1):
            g = CubeAutomorphism.translation_by(BitVector(n, bits))
            assert element_min_distance(g) == bin(bits).count("1")


def test_element_distance_rejects_identity():
    with pytest.raises(IdentityElement):
        element_min_distance(CubeAutomorphism.identity(4))


def test_element_distance_involution_formula():
    # involutions: distance counts fixed coordinates carrying a 1
    rng = random.Random(11)
    for n in (4, 6, 9):
        for _ in range(50):
            m = rng.randrange(0, n // 2 + 1)
            coords = list(range(1, n + 1))
            rng.shuffle(coords)
            cycles = [(coords[2 * i], coords[2 * i + 1]) for i in range(m)]
            sigma = Permutation.from_cycles(n, cycles) if cycles else Permutation.identity(n)
            bits = 0
            for a, b in cycles:
                if rng.randrange(2):
                    bits |= (1 << (a - 1)) | (1 << (b - 1))
            fixed = coords[2 * m:]
            for i in fixed:
                if rng.randrange(2):
                    bits |= 1 << (i - 1)
            g = CubeAutomorphism(BitVector(n, bits), sigma)
            if g.is_identity():
                continue
            expected = sum(1 for i in fixed if (bits >> (i - 1)) & 1)
            assert element_min_distance(g) == expected


def test_element_distance_matches_brute_force_exhaustive_n4():
    n = 4
    for images in itertools.permutations(range(n)):
        p = Permutation(images)
        for bits in range(1 << n):
            g = CubeAutomorphism(BitVector(n, bits), p)
            if g.is_identity():
                continue
            assert element_min_distance(g) == brute_element_distance(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**9))
def test_element_distance_matches_brute_force_random(n, seed):
    g = random_element(n, random.Random(seed))
    if g.is_identity():
        return
    assert element_min_distance(g) == brute_element_distance(g)


def test_min_distance_trivial_is_infinity():
    assert min_distance(CubeGroup.trivial(5)) is INFINITY


def test_min_distance_quaternion(quaternion_group):
    assert min_distance(quaternion_group) == 4


def test_min_distance_folded(folded8):
    assert min_distance(folded8) == 8


def test_min_distance_matches_full_scan():
    # the scan stops at the first element of distance 0; compare with all elements
    groups = [generate_group(standard_generators(4))]
    for n in range(3, 9):
        groups += sample_subgroups(n, 6, random.Random(f"mindist:{n}"))
    values = []
    for K in groups:
        values.append(min_distance(K))
        assert values[-1] == min(element_min_distance(g) for g in K.non_identity())
    assert 0 in values and any(v > 0 for v in values)


def test_min_distance_of_linear_code_is_min_weight():
    # subgroups of translations: minimum distance = minimum codeword weight
    rng = random.Random(3)
    for n in (5, 7, 9):
        for _ in range(20):
            vecs = [BitVector(n, rng.randrange(1, 1 << n)) for _ in range(3)]
            K = generate_group([CubeAutomorphism.translation_by(v) for v in vecs])
            weights = [
                g.translation.weight for g in K.non_identity()
            ]
            assert min_distance(K) == min(weights)


# ---------------------------------------------------------------------------
# Evenness, semiregularity, conjugation, even part
# ---------------------------------------------------------------------------


def test_is_even(quaternion_group):
    assert is_even(CubeGroup.trivial(4))
    assert is_even(quaternion_group)
    assert not is_even(generate_group([CubeAutomorphism.translation_by(BitVector(6, 1))]))


def test_is_semiregular():
    assert is_semiregular(CubeGroup.trivial(3))
    K = generate_group(
        [CubeAutomorphism(BitVector.zero(4), Permutation.from_cycles(4, [(1, 2)]))]
    )
    assert not is_semiregular(K)  # fixes the zero vertex


def test_conjugate_by_identity(quaternion_group):
    K = conjugate_group(quaternion_group, CubeAutomorphism.identity(8))
    assert K.same_group_as(quaternion_group)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_conjugation_preserves_min_distance(seed):
    rng = random.Random(seed)
    n = rng.choice((4, 5, 6, 7, 8))
    gens = [random_element(n, rng) for _ in range(2)]
    try:
        K = generate_group(gens, cap=64)
    except GroupTooLarge:
        return
    g = random_element(n, rng)
    assert min_distance(conjugate_group(K, g)) == min_distance(K)


def test_conjugate_of_translation_group_is_translation_group():
    rng = random.Random(9)
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector(7, rng.randrange(1, 128))) for _ in range(2)]
    )
    g = random_element(7, rng)
    L = conjugate_group(K, g)
    assert all(k.is_translation() for k in L)


def test_intersect_even():
    n = 6
    K_even = folded_cube_group(6)
    assert intersect_even(K_even) is K_even
    K_odd = generate_group([CubeAutomorphism.translation_by(BitVector(n, 1))])
    assert intersect_even(K_odd).is_trivial
    K = generate_group(
        [
            CubeAutomorphism.translation_by(BitVector(n, 0b000111)),
            CubeAutomorphism.translation_by(BitVector(n, 0b000011)),
        ]
    )
    L = intersect_even(K)
    assert L.order == 2 and is_even(L)
    assert min_distance(L) >= 2


# ---------------------------------------------------------------------------
# Normalizer tiers
# ---------------------------------------------------------------------------


def test_normalizer_of_trivial_group_is_ambient():
    N = normalizer(CubeGroup.trivial(4), "full")
    assert N.order == (1 << 4) * math.factorial(4)
    assert N.elements is not None and len(N.elements) == N.order
    Ne = normalizer(CubeGroup.trivial(4), "even")
    assert Ne.order == (1 << 3) * math.factorial(4)
    assert all(g.is_even() for g in Ne)


def test_normalizer_central_all_ones(folded8):
    N = normalizer(folded8, "full", cap=1)
    assert N.order == (1 << 8) * math.factorial(8)


def test_normalizer_brute_force_cross_check_n6():
    # {0, e_{1..5}} at n = 6, against a plain scan of all 46080 elements
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector.from_support(6, (1, 2, 3, 4, 5)))]
    )
    N = normalizer(K, "full", cap=1)
    count = 0
    k = next(K.non_identity())
    for images in itertools.permutations(range(6)):
        tau = Permutation(images)
        for y in range(64):
            g = CubeAutomorphism(BitVector(6, y), tau)
            if k.conjugated_by(g) in K:
                count += 1
    assert N.order == count == (1 << 6) * math.factorial(5)


def test_normalizer_brute_tier_matches_involution_tier():
    # |K| = 4 translation group runs through the ambient scan; rebuild the
    # same count from the order-2 subgroups it contains
    v1 = CubeAutomorphism.translation_by(BitVector.from_support(5, (1, 2)))
    v2 = CubeAutomorphism.translation_by(BitVector.from_support(5, (3, 4)))
    K = generate_group([v1, v2])
    N = normalizer(K, "full")
    count = 0
    ks = list(K.non_identity())
    for images in itertools.permutations(range(5)):
        tau = Permutation(images)
        for y in range(32):
            g = CubeAutomorphism(BitVector(5, y), tau)
            if all(k.conjugated_by(g) in K for k in ks):
                count += 1
    assert N.order == count


def test_normalizer_generators_normalize(quaternion_group):
    N = normalizer(quaternion_group, "full", cap=1)
    for g in N.generators:
        assert all(k.conjugated_by(g) in quaternion_group for k in quaternion_group)
    assert N.order % quaternion_group.order == 0


def test_normalizer_transposition_involution():
    # x = all-ones, sigma = (1 2): N = {(y,tau): y_1=y_2, tau commutes}
    n = 8
    K = generate_group(
        [CubeAutomorphism(BitVector.all_ones(n), Permutation.from_cycles(n, [(1, 2)]))]
    )
    N = normalizer(K, "full", cap=1)
    assert N.order == (1 << 7) * (2 * math.factorial(6))
    for g in N.generators:
        y = g.translation
        assert y.bit(1) == y.bit(2)
        tau = g.perm
        assert {tau.image_of(1), tau.image_of(2)} == {
            tau.image_of(2), tau.image_of(1)
        }


def test_normalizer_unsupported_above_tiers():
    from cubequot.errors import Unsupported

    # |K| = 4 at n = 9 exceeds the ambient-scan bound and is not order 2
    gens = [
        CubeAutomorphism.translation_by(BitVector.from_support(9, (1, 2, 3, 4, 5))),
        CubeAutomorphism.translation_by(BitVector.from_support(9, (5, 6, 7, 8, 9))),
    ]
    K = generate_group(gens)
    assert K.order == 4
    with pytest.raises(Unsupported):
        normalizer(K, "full")


def test_normalizer_order2_works_above_brute_bound():
    # the constraint tier covers order-2 groups regardless of n
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector.all_ones(12))]
    )
    N = normalizer(K, "full", cap=1)
    assert N.order == (1 << 12) * math.factorial(12)
    assert N.elements is None  # order above the cap, list not materialized


# Oracles for the normalizer: element counts by enumeration, with no
# Schreier-Sims and no F_2 elimination.


def centralizer_count(K):
    """(|N(K)|, |N_even(K)|) for K = {1, (x, sigma)} with sigma != id.

    (y, tau) normalizes K iff tau commutes with sigma and
    y^sigma xor y = x^tau xor x. The centralizer of sigma,
    Sym(fixed) x (S_2 wr S_m), is enumerated; each tau contributes a full
    coset of Fix(sigma) or nothing.
    """
    n = K.n
    k = next(K.non_identity())
    x, sigma = k.translation.bits, k.perm
    fixed = [j for j in range(n) if sigma.images[j] == j]
    cycles = [tuple(i - 1 for i in c) for c in sigma.cycles()]
    m = len(cycles)
    coset = 1 << (len(fixed) + m)
    full = even = 0
    for fperm in itertools.permutations(fixed):
        for cperm in itertools.permutations(range(m)):
            for flips in range(1 << m):
                images = list(range(n))
                for j, fj in zip(fixed, fperm):
                    images[j] = fj
                for ci, (a, b) in enumerate(cycles):
                    ta, tb = cycles[cperm[ci]]
                    if (flips >> ci) & 1:
                        ta, tb = tb, ta
                    images[a], images[b] = ta, tb
                z = Permutation(images).apply_bits(x) ^ x
                # y^sigma xor y = z is solvable iff z vanishes on fixed
                # coordinates and is constant on every 2-cycle
                if z & sigma.fixed_mask() or any((z >> a) & 1 != (z >> b) & 1 for a, b in cycles):
                    continue
                y0 = sum(1 << a for a, _ in cycles if (z >> a) & 1)
                full += coset
                if fixed:  # Fix(sigma) holds odd vectors: half the coset is even
                    even += coset // 2
                elif y0.bit_count() % 2 == 0:
                    even += coset
    return full, even


def ambient_scan_count(K):
    """(|N(K)|, |N_even(K)|) by a scan of Aut(Q_n), factored through tau.

    The conjugate of (x, s) by (y, tau) is (y^s' xor y xor x^tau, s') with
    s' = tau^-1 s tau; tau is skipped unless every s' is a coordinate part
    of K, and y is looped over only when some s' is not the identity.
    """
    n = K.n
    fibres = {}
    for g in K:
        fibres.setdefault(g.perm.images, set()).add(g.translation.bits)
    ks = list(K.non_identity())
    full = even = 0
    for images in itertools.permutations(range(n)):
        tau = Permutation(images)
        tinv = tau.inverse()
        conds = []
        for k in ks:
            sp = tinv.compose(k.perm).compose(tau)
            if sp.images not in fibres:
                break
            conds.append((sp, tau.apply_bits(k.translation.bits), fibres[sp.images]))
        else:
            if all(sp.is_identity() for sp, _, _ in conds):
                if all(xt in fibre for _, xt, fibre in conds):
                    full += 1 << n
                    even += 1 << (n - 1)
                continue
            for y in range(1 << n):
                if all(sp.apply_bits(y) ^ y ^ xt in fibre for sp, xt, fibre in conds):
                    full += 1
                    even += y.bit_count() % 2 == 0
    return full, even


def check_normalizer(K, counts):
    for ambient, expected in zip(("full", "even"), counts):
        N = normalizer(K, ambient, cap=1)
        assert N.order == expected, (K, ambient)
        for g in N.generators:
            assert all(k.conjugated_by(g) in K for k in K.generators)
            assert ambient == "full" or g.is_even()


@pytest.mark.parametrize("n", range(2, 9))
def test_normalizer_of_involutions_matches_enumeration(n):
    rng = random.Random(f"normalizer-involution:{n}")
    groups = [generate_group([random_involution(n, rng)]) for _ in range(10)]
    if n % 2 == 0:
        # sigma without fixed coordinates, with x = 0, all-ones, and one 2-cycle
        sigma = Permutation.from_cycles(n, [(i, i + 1) for i in range(1, n, 2)])
        for x in (0, (1 << n) - 1, 0b11):
            groups.append(generate_group([CubeAutomorphism(BitVector(n, x), sigma)]))
    for K in groups:
        k = next(K.non_identity())
        check_normalizer(K, ambient_scan_count(K) if k.is_translation() else centralizer_count(K))


@pytest.mark.parametrize("n", (5, 6, 7))
def test_normalizer_of_larger_groups_matches_ambient_scan(n):
    rng = random.Random(f"normalizer-coset:{n}")
    groups = [random_subgroup(n, order, rng) for order in (4, 8, 4, 8)]
    for dim in (2, 3):
        while True:
            vecs = [rng.randrange(1, 1 << n) for _ in range(dim)]
            K = generate_group([CubeAutomorphism.translation_by(BitVector(n, v)) for v in vecs])
            if K.order == 1 << dim:
                groups.append(K)
                break
    # two commuting transpositions: every element fixes vertex 0
    groups.append(
        generate_group(
            [
                CubeAutomorphism(BitVector.zero(n), Permutation.transposition(n, 1, 2)),
                CubeAutomorphism(
                    BitVector.from_support(n, (5,)), Permutation.transposition(n, 3, 4)
                ),
            ]
        )
    )
    assert not is_semiregular(groups[-1])
    for K in groups:
        assert K.order in (4, 8)
        check_normalizer(K, ambient_scan_count(K))


def test_normalizer_orders_match_sympy(quaternion_group):
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    not_vt = generate_group(
        [CubeAutomorphism(BitVector.all_ones(10), Permutation.transposition(10, 1, 2))]
    )
    for K, ambient, order in ((not_vt, "even", 20_643_840), (quaternion_group, "full", 3072)):
        N = normalizer(K, ambient, cap=1)
        sym = SymGroup([SymPerm(list(_monomial_perm(g)), size=2 * K.n) for g in N.generators])
        assert N.order == order == sym.order()


def test_normalizer_of_involution_with_large_centralizer():
    # sigma is eight 2-cycles, so C(sigma) = S_2 wr S_8 has 10,321,920 elements;
    # N is generated by O(n) elements instead
    n = 16
    sigma = Permutation.from_cycles(n, [(i, i + 1) for i in range(1, n, 2)])
    K = generate_group([CubeAutomorphism(BitVector.all_ones(n), sigma)])
    for ambient in ("full", "even"):
        N = normalizer(K, ambient, cap=1)
        assert N.order == 2**8 * 2**8 * math.factorial(8) == 2_642_411_520
        assert len(N.generators) <= 2 * n


def test_intersect_even_needs_elements():
    from cubequot.errors import Unsupported

    N = normalizer(generate_group(
        [CubeAutomorphism.translation_by(BitVector.all_ones(10))]
    ), "full", cap=1)
    assert N.elements is None
    with pytest.raises(Unsupported):
        intersect_even(N)


# ---------------------------------------------------------------------------
# Group file format
# ---------------------------------------------------------------------------


def test_parse_quaternion_file(quaternion_group):
    assert quaternion_group.n == 8
    assert quaternion_group.order == 8


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError) as err:
        parse_group_text("m=8\n")
    assert err.value.line_no == 1


def test_parse_rejects_bad_bits():
    with pytest.raises(ParseError) as err:
        parse_group_text("n=8\nx=1111 perm=id\n")
    assert err.value.line_no == 2


def test_parse_rejects_bad_cycles():
    with pytest.raises(ParseError) as err:
        parse_group_text("n=4\nx=1111 perm=(1 2\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_group_text("n=4\nx=1111 perm=(1 9)\n")
    with pytest.raises(ParseError):
        parse_group_text("n=4\nx=1111 perm=(1 2)(2 3)\n")


def test_parse_allows_blank_lines():
    K = parse_group_text("n=4\n\nx=1100 perm=id\n\n")
    assert K.order == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_format_parse_round_trip(seed):
    rng = random.Random(seed)
    n = rng.choice((3, 5, 8))
    gens = [random_element(n, rng) for _ in range(2)]
    try:
        K = generate_group(gens, cap=512)
    except GroupTooLarge:
        return
    K2 = parse_group_text(format_group_text(K))
    assert K2.same_group_as(K)
