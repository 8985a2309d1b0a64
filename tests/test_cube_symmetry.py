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
from cubequot import cube_symmetry
from cubequot.covering import deck_group, lift_covering
from cubequot.cube_symmetry import (
    DEFAULT_GROUP_CAP,
    _add_to_span,
    _cycle_data,
    _even_part,
    _least_weight,
    _monomial_perm,
    _move_bits,
    _schreier_walk,
    _span,
    _translation_pivots,
    conjugating_element,
    standard_generators,
)
from cubequot.errors import (
    DimensionMismatch,
    GroupTooLarge,
    IdentityElement,
    InvariantViolated,
    ParseError,
    TooLarge,
    Unsupported,
)
from cubequot.quotient import build_quotient
from cubequot.verify import (
    class_dist_grid,
    describe_group,
    exhaustive_order2_subgroups,
    random_involution,
    random_subgroup,
    sample_groups_with_min_distance,
    sample_subgroups,
)

from conftest import (
    QUATERNION_FILE,
    brute_element_distance,
    folded_cube_group,
    is_translation,
    same_group_as,
)


def support(v: BitVector) -> tuple[int, ...]:
    return tuple(i for i in range(1, v.n + 1) if v.bit(i))


def image_of(p: Permutation, i: int) -> int:
    """Image of 1-based coordinate i, 1-based."""
    return p.images[i - 1] + 1


def element_order(g: CubeAutomorphism) -> int:
    k = 1
    cur = g
    while not cur.is_identity():
        cur = cur.compose(g)
        k += 1
    return k


def random_element(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return CubeAutomorphism(BitVector(n, rng.randrange(1 << n)), Permutation(images))


# ---------------------------------------------------------------------------
# BitVector and Permutation basics
# ---------------------------------------------------------------------------


def test_bitvector_string_round_trip():
    v = BitVector.from_string("11110000")
    assert support(v) == (1, 2, 3, 4)
    assert v.to_string() == "11110000"
    assert v.weight == 4
    assert (v ^ v).bits == 0


def test_bitvector_rejects_out_of_range_bits():
    with pytest.raises(Exception):
        BitVector(3, 0b1000)


def test_permutation_cycles_round_trip():
    p = Permutation.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    assert p.cycle_string() == "(1 5)(2 6)(3 7)(4 8)"
    assert image_of(p, 1) == 5 and image_of(p, 5) == 1
    assert p.compose(p).is_identity()
    assert Permutation.identity(4).cycle_string() == "id"


def test_permutation_fixed_points():
    p = Permutation.from_cycles(5, [(1, 2)])
    assert p.fixed_points() == (3, 4, 5)


def reference_cycles(images):
    """Non-trivial 1-based cycles by a walk of their own, least point first."""
    out = []
    seen = [False] * len(images)
    for j in range(len(images)):
        if seen[j] or images[j] == j:
            continue
        cyc = []
        k = j
        while not seen[k]:
            seen[k] = True
            cyc.append(k + 1)
            k = images[k]
        out.append(tuple(cyc))
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_data_matches_cycles(n):
    for images in itertools.permutations(range(n)):
        p = Permutation(images)
        assert p.cycles() == reference_cycles(images)
        fixed_mask, cycle_masks = _cycle_data(images)
        assert fixed_mask == sum(1 << (i - 1) for i in p.fixed_points())
        assert cycle_masks == [sum(1 << (i - 1) for i in c) for c in p.cycles()]
        assert p.fixed_mask() == fixed_mask and p.cycle_masks() == tuple(cycle_masks)


def test_cycles_match_the_reference_walk_up_to_the_largest_dimension():
    rng = random.Random("cycles")
    for n in (7, 12, 20, 32):
        for _ in range(200):
            images = list(range(n))
            rng.shuffle(images)
            assert Permutation(images).cycles() == reference_cycles(images)


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


def validated(n, y, images):
    return CubeAutomorphism(BitVector(n, y), Permutation(images))


def moved_bits(bits, images):
    return sum(1 << images[j] for j in range(len(images)) if (bits >> j) & 1)


def checked_compose(g, h):
    """g followed by h, every part built by the validating constructors."""
    hy, hs = h.key()
    return validated(
        g.n, moved_bits(g.translation.bits, hs) ^ hy, tuple(hs[j] for j in g.perm.images)
    )


def checked_inverse(g):
    inv = [0] * g.n
    for j, k in enumerate(g.perm.images):
        inv[k] = j
    return validated(g.n, moved_bits(g.translation.bits, inv), inv)


def closure_oracle(gens, n):
    """Breadth-first closure over validated objects, generators in input order."""
    ident = validated(n, 0, range(n))
    elements = [ident]
    seen = {ident.key()}
    qi = 0
    while qi < len(elements):
        cur = elements[qi]
        qi += 1
        for g in gens:
            nxt = checked_compose(cur, g)
            if nxt.key() not in seen:
                seen.add(nxt.key())
                elements.append(nxt)
    return [g.key() for g in elements]


def key_closure(n, gens, cap):
    """Every element of <gens>, breadth-first from the identity.

    Generators are applied in input order, so the element order is
    deterministic. Raises GroupTooLarge when the closure exceeds cap. The
    search runs over (translation bits, images) keys; the elements it
    returns are unchecked views over them.
    """
    # each generator with a flag for a pure translation, whose coordinate part
    # leaves the images as they are, and a memo y -> y^sigma xor y_g
    steps = [(g.translation.bits, g.perm.images, g.perm.is_identity(), {}) for g in gens]
    ident = (0, tuple(range(n)))
    keys = [ident]
    seen = {ident}
    qi = 0
    while qi < len(keys):
        y, images = keys[qi]
        qi += 1
        for g_y, g_images, g_is_translation, memo in steps:
            t = memo.get(y)
            if t is None:
                t = memo[y] = _move_bits(y, g_images) ^ g_y
            k = (t, images if g_is_translation else tuple([g_images[j] for j in images]))
            if k not in seen:
                if len(keys) >= cap:
                    raise GroupTooLarge(f"closure exceeds cap {cap}")
                seen.add(k)
                keys.append(k)
    # drop the search state before the views exist, and the keys after
    del seen, steps
    view = CubeAutomorphism._from_key
    elements = tuple([view(n, y, images) for y, images in keys])
    del keys
    return elements


def closed_elements(K):
    """The elements of K by the key closure of its generators: the oracle for
    everything read off K's Schreier walk, its element list included."""
    return key_closure(K.n, K.generators, DEFAULT_GROUP_CAP)


def check_lists_the_closure(K, closed_keys):
    """K's element list holds the closed keys: the same set, each once, and
    the identity first."""
    listed = [g.key() for g in K.elements]
    assert len(listed) == len(closed_keys) == K.order
    assert set(listed) == set(closed_keys)
    assert listed[0] == (0, tuple(range(K.n)))


def closure_cases():
    cases = []
    for n in range(1, 7):
        for ambient in ("full", "even"):
            gens = standard_generators(n, even=ambient == "even")
            cases.append(pytest.param(n, gens, id=f"standard-{n}-{ambient}"))
    for n in range(3, 11):
        for j, K in enumerate(sample_subgroups(n, 6, random.Random(f"closure-oracle:{n}"))):
            cases.append(pytest.param(n, K.generators, id=f"sample-{n}-{j}"))
    quaternion = parse_group_text(QUATERNION_FILE)
    cases.append(pytest.param(8, quaternion.generators, id="quaternion"))
    rng = random.Random("closure-oracle:translations")
    for n, dim in ((5, 5), (8, 3), (10, 4), (12, 6)):
        vecs = [rng.randrange(1, 1 << n) for _ in range(dim)]
        gens = [CubeAutomorphism.translation_by(BitVector(n, v)) for v in vecs]
        cases.append(pytest.param(n, gens, id=f"translations-{n}"))
    return cases


@pytest.mark.parametrize("n, gens", closure_cases())
def test_generate_group_matches_object_closure(n, gens):
    K = generate_group(gens, n=n)
    expected = closure_oracle(gens, n)
    assert [g.key() for g in key_closure(n, gens, len(expected))] == expected
    check_lists_the_closure(K, expected)
    if K.order > 1:
        with pytest.raises(GroupTooLarge, match=f"^closure exceeds cap {K.order - 1}$"):
            key_closure(n, gens, K.order - 1)
        assert generate_group(gens, cap=K.order).order == K.order
        with pytest.raises(GroupTooLarge, match=f"^group order exceeds cap {K.order - 1}$"):
            generate_group(gens, cap=K.order - 1)


def test_generate_group_builds_no_validated_parts(monkeypatch):
    gens = standard_generators(6)
    calls = []
    for cls in (BitVector, Permutation, CubeAutomorphism):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__):
            calls.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    K = generate_group(gens)
    assert len(K.elements) == K.order == 2**6 * math.factorial(6)
    assert calls == []
    validated(6, 1, range(6))  # the counter sees the public constructors
    assert calls == ["BitVector", "Permutation", "CubeAutomorphism"]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**9))
def test_derived_views_match_validated_elements(n, seed):
    rng = random.Random(seed)
    g, h = random_element(n, rng), random_element(n, rng)
    derived = [
        (g.compose(h), checked_compose(g, h)),
        (g * h, checked_compose(g, h)),
        (g.inverse(), checked_inverse(g)),
        (g.conjugated_by(h), checked_compose(checked_compose(checked_inverse(h), g), h)),
        (g.perm.compose(h.perm), checked_compose(g, h).perm),
        (g.perm.inverse(), checked_inverse(g).perm),
    ]
    for view, expected in derived:
        assert view == expected and hash(view) == hash(expected)
        assert repr(view) == repr(expected)
    v = rng.randrange(1 << n)
    assert g.compose(h).act_bits(v) == h.act_bits(g.act_bits(v))
    assert g.inverse().act_bits(g.act_bits(v)) == v
    view = g.compose(h)
    for obj, attr in ((view, "perm"), (view.translation, "bits"), (view.perm, "images")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert view.key() == (view.translation.bits, view.perm.images)
    assert view.translation.n == view.perm.n == n


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10**9))
def test_listed_views_are_valid_elements(n, seed):
    rng = random.Random(seed)
    K = random_subgroup(n, rng.choice((2, 4, 8)), rng)
    for g in K:
        y, images = g.key()
        expected = validated(n, y, images)
        assert g == expected and hash(g) == hash(expected) and repr(g) == repr(expected)
        assert type(images) is tuple and g.translation.n == n
        with pytest.raises(AttributeError):
            g.translation = BitVector.zero(n)


def test_element_order_divides_group_order(quaternion_group):
    for g in quaternion_group:
        assert quaternion_group.order % element_order(g) == 0


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
        assert values[-1] == scan_min_distance(closed_elements(K))
    assert 0 in values and any(v > 0 for v in values)


def test_min_distance_of_linear_code_is_min_weight():
    # subgroups of translations: minimum distance = minimum codeword weight
    rng = random.Random(3)
    for n in (5, 7, 9):
        for _ in range(20):
            vecs = [BitVector(n, rng.randrange(1, 1 << n)) for _ in range(3)]
            K = generate_group([CubeAutomorphism.translation_by(v) for v in vecs])
            weights = [g.translation.weight for g in closed_elements(K) if not g.is_identity()]
            assert min_distance(K) == min(weights)


# Oracles for the Schreier walk and the coset minima: the key closure.


def scan_min_distance(elements):
    """d_K by the element scan: the closed form of every non-identity element."""
    return min((element_min_distance(g) for g in elements if not g.is_identity()), default=INFINITY)


def check_walk_matches_closure(K):
    """Order, pi(K), representatives, T, d_K and the element list from the
    generators alone equal those read off the key closure."""
    closed = closed_elements(K)
    order = len(closed)
    keys = {g.key() for g in closed}
    reps, t_pivots = _schreier_walk(K.n, K.generators)
    assert len(reps) << len(t_pivots) == order
    assert set(reps) == {images for _, images in keys}
    assert all((x, images) in keys for images, x in reps.items())
    identity = tuple(range(K.n))
    assert sorted(_span(t_pivots)) == sorted(y for y, images in keys if images == identity)
    unlisted = CubeGroup(K.n, K.generators, order, cap=1)
    d = min_distance(unlisted)
    assert d == scan_min_distance(closed)
    assert sorted(_translation_pivots(unlisted).values()) == sorted(t_pivots.values())
    check_lists_the_closure(CubeGroup(K.n, K.generators, order), keys)
    return order, d


def test_walk_matches_closure_on_the_class_dist_grid():
    for K in class_dist_grid(0):
        assert check_walk_matches_closure(K)[0] == K.order


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_matches_closure_on_every_order2_subgroup(n):
    for K in exhaustive_order2_subgroups(n):
        assert check_walk_matches_closure(K)[0] == 2


@pytest.mark.parametrize("k", range(1, 13))
def test_walk_matches_closure_on_translation_codes(k):
    rng = random.Random(f"code:{k}")
    for n in (k, k + 2, 16):
        for _ in range(2):
            basis: dict[int, int] = {}
            while len(basis) < k:
                _add_to_span(rng.randrange(1, 1 << n), basis)
            gens = [CubeAutomorphism.translation_by(BitVector(n, v)) for v in basis.values()]
            order, d = check_walk_matches_closure(CubeGroup(n, gens, 1 << k))
            assert order == 1 << k
            assert d == min(v.bit_count() for v in _span(basis) if v)


@pytest.mark.parametrize("seed", range(4))
def test_walk_matches_closure_on_permutations_over_large_translation_parts(seed):
    # cosets whose code M(T) is neither 0 nor everything, so the Gray-code walk runs
    rng = random.Random(f"large-T:{seed}")
    checked = 0
    while checked < 50:
        n = rng.choice((5, 6, 7, 8))
        gens = [random_element(n, rng) for _ in range(rng.choice((1, 2)))]
        gens += [CubeAutomorphism.translation_by(BitVector(n, rng.randrange(1, 1 << n)))]
        try:
            order = len(key_closure(n, gens, 4096))
        except GroupTooLarge:
            continue
        assert check_walk_matches_closure(CubeGroup(n, gens, order))[0] == order
        checked += 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walk_matches_closure_on_the_cube_automorphism_group(n):
    assert check_walk_matches_closure(CubeGroup(n, standard_generators(n), 1)) == (
        (1 << n) * math.factorial(n),
        0,
    )


def test_parse_walks_the_order_and_lists_no_elements(monkeypatch):
    text = format_group_text(CubeGroup(6, standard_generators(6), 1))

    def no_list(*args, **kwargs):
        raise AssertionError("element list built")

    monkeypatch.setattr(CubeGroup, "elements", property(no_list))
    K = parse_group_text(text)
    assert K.order == 46080 and min_distance(K) == 0
    with pytest.raises(GroupTooLarge):
        parse_group_text(text, cap=46079)


def test_walk_refuses_past_its_bound(monkeypatch):
    monkeypatch.setattr(cube_symmetry, "_WALK_CAP", 100)
    with pytest.raises(GroupTooLarge):
        _schreier_walk(6, standard_generators(6))  # 720 coordinate parts
    assert len(_schreier_walk(4, standard_generators(4))[0]) == 24


def test_capped_parse_admits_more_parts_than_the_walk_bound(monkeypatch):
    # a group cap bounds the parts itself: S_6 on the coordinates has 720 parts
    monkeypatch.setattr(cube_symmetry, "_WALK_CAP", 100)
    text = "n=6\nx=000000 perm=(1 2)\nx=000000 perm=(1 2 3 4 5 6)\n"
    K = parse_group_text(text, cap=1000)
    assert K.order == 720 and min_distance(K) == 0
    with pytest.raises(GroupTooLarge):
        parse_group_text(text, cap=719)


def test_coset_word_bound_is_checked_before_the_walk(monkeypatch):
    monkeypatch.setattr(cube_symmetry, "_COSET_WORD_CAP", 1 << 3)
    coset = [0b11110 ^ a ^ b ^ c for a in (0, 0b11) for b in (0, 0b110) for c in (0, 0b1100)]
    assert _least_weight(0b11110, [0b11, 0b110, 0b1100]) == min(w.bit_count() for w in coset) == 2
    with pytest.raises(TooLarge):
        _least_weight(0b11110, [0b11, 0b110, 0b1100, 0b11000])


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
    assert same_group_as(K, quaternion_group)


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
    assert all(is_translation(k) for k in L)


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


def reclosing_generators(n, elements):
    """Greedy generators that re-close the group after every new one."""
    gens = []
    known = {CubeAutomorphism.identity(n).key()}
    for e in elements:
        if e.key() in known:
            continue
        gens.append(e)
        known = {g.key() for g in generate_group(gens, cap=len(elements) + 1)}
    return tuple(gens)


def greedy_oracle_groups():
    groups = []
    for n in range(4, 11):
        groups.extend(sample_subgroups(n, 6, random.Random(f"greedy:{n}")))
    return groups


@pytest.mark.parametrize("K", greedy_oracle_groups(), ids=repr)
def test_intersect_even_elements_are_the_even_filter(K):
    L = intersect_even(K)
    even = {g.key() for g in closed_elements(K) if g.is_even()}
    assert L.order == len(even)
    assert {g.key() for g in closed_elements(L)} == even
    assert all(g.is_even() for g in L.generators)


def heavy_group(n, rng):
    """<2 or 3 elements (x, sigma)>, |x| >= 5 and sigma a transposition or id."""
    gens = []
    for _ in range(rng.choice((2, 3))):
        coords = list(range(1, n + 1))
        rng.shuffle(coords)
        cycles = [tuple(coords[:2])] if rng.randrange(2) else []
        support = coords[2 : 2 + rng.randrange(5, n - 1)]
        sigma = Permutation.from_cycles(n, cycles)
        gens.append(CubeAutomorphism(BitVector.from_support(n, support), sigma))
    return generate_group(gens, cap=9)


def rectagraph_quotients():
    """Per n = 4..10, the first three sampled quotients that are rectagraphs
    (mostly small cubes, with trivial or small deck groups); per n = 8..10,
    three quotients by groups of order >= 4 with d_K >= 5."""
    from cubequot.graph_core import is_rectagraph

    graphs = []
    for n in range(4, 11):
        rng = random.Random(f"deck:{n}")
        found = 0
        while found < 3:
            if rng.randrange(2):
                K = random_subgroup(n, rng.choice((4, 8)), rng)
            else:
                count = rng.choice((2, 3))
                vecs = [BitVector(n, rng.randrange(1, 1 << n)) for _ in range(count)]
                K = generate_group([CubeAutomorphism.translation_by(v) for v in vecs])
            G = build_quotient(K).graph
            if is_rectagraph(G):
                graphs.append(G)
                found += 1
        found = 0
        while n >= 8 and found < 3:
            try:
                K = heavy_group(n, rng)
            except GroupTooLarge:
                continue
            if K.order >= 4 and min_distance(K) >= 5:
                graphs.append(build_quotient(K).graph)
                found += 1
    return graphs


@pytest.mark.parametrize("G", rectagraph_quotients(), ids=lambda G: f"V={G.n}")
def test_deck_group_generators_match_reclosing_greedy(G):
    cover = lift_covering(G)
    D = deck_group(cover)
    # deck_group's members, one per vertex y of the fibre over image[0], ascending
    fiber = [v for v in range(1 << cover.n) if cover.image[v] == cover.image[0]]
    by_translation = {g.translation.bits: g for g in D}
    members = [by_translation[y] for y in fiber]
    assert D.generators == reclosing_generators(cover.n, members)
    assert D.order == len(fiber)


def check_membership_matches_closure(K, rng):
    """g in K, read off the walk, equals membership in the closed key set:
    on every element, on each with its translation moved by e_1, and on 200
    random automorphisms."""
    probes = list(closed_elements(K))
    keys = {g.key() for g in probes}
    probes += [CubeAutomorphism._from_key(K.n, y ^ 1, images) for y, images in keys]
    probes += [random_element(K.n, rng) for _ in range(200)]
    for g in probes:
        assert (g in K) == (g.key() in keys), (K, g)
    assert any(g not in K for g in probes)


def test_membership_matches_the_closed_list_on_the_class_dist_grid(quaternion_group):
    rng = random.Random("membership")
    for K in class_dist_grid(0) + [quaternion_group]:
        check_membership_matches_closure(K, rng)


def test_membership_in_a_normalizer_lists_no_elements(monkeypatch):
    n = 10
    K = generate_group([CubeAutomorphism(BitVector.all_ones(n), Permutation.transposition(n, 1, 2))])
    N = normalizer(K, "full")

    def no_list(*args, **kwargs):
        raise AssertionError("element list built")

    monkeypatch.setattr(CubeGroup, "elements", property(no_list))
    assert all(g in N for g in N.generators)
    # (y, id) normalizes K iff y_1 = y_2
    assert CubeAutomorphism.translation_by(BitVector.from_support(n, (1, 2))) in N
    assert CubeAutomorphism.translation_by(BitVector.from_support(n, (1,))) not in N
    assert CubeAutomorphism.identity(n + 1) not in N
    assert same_group_as(N, CubeGroup(n, N.generators[::-1], N.order))
    assert not same_group_as(N, normalizer(K, "even"))


def test_same_group_as_tells_equal_orders_apart():
    a = CubeAutomorphism.translation_by(BitVector.from_support(6, (1, 2)))
    b = CubeAutomorphism.translation_by(BitVector.from_support(6, (3, 4)))
    K = generate_group([a, b])
    assert same_group_as(K, generate_group([a.compose(b), b]))
    assert not same_group_as(K, generate_group([a]))
    assert not same_group_as(
        K, generate_group([a, CubeAutomorphism.translation_by(BitVector.from_support(6, (5, 6)))])
    )
    assert not same_group_as(K, generate_group([a, CubeAutomorphism.translation_by(BitVector(6, 1))]))
    assert not same_group_as(CubeGroup.trivial(5), CubeGroup.trivial(6))


# ---------------------------------------------------------------------------
# Normalizer tiers
# ---------------------------------------------------------------------------


def test_normalizer_of_trivial_group_is_ambient():
    N = normalizer(CubeGroup.trivial(4), "full")
    assert N.order == (1 << 4) * math.factorial(4)
    assert len(N.elements) == N.order
    check_lists_the_closure(N, closure_oracle(N.generators, N.n))
    Ne = normalizer(CubeGroup.trivial(4), "even")
    assert Ne.order == (1 << 3) * math.factorial(4)
    assert all(g.is_even() for g in Ne)
    check_lists_the_closure(Ne, closure_oracle(Ne.generators, Ne.n))


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
        assert {image_of(tau, 1), image_of(tau, 2)} == {
            image_of(tau, 2), image_of(tau, 1)
        }


def test_normalizer_unsupported_above_tiers():
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
    with pytest.raises(GroupTooLarge):
        N.elements  # order above the cap


def test_element_list_above_cap_raises_before_any_walk(monkeypatch):
    K = generate_group([CubeAutomorphism.translation_by(BitVector.all_ones(12))])
    N = normalizer(K, "full")
    assert N.order > DEFAULT_GROUP_CAP == N.cap

    def no_walk(*args, **kwargs):
        raise AssertionError("Schreier walk run")

    monkeypatch.setattr(CubeGroup, "_coset_walk", no_walk)
    with pytest.raises(GroupTooLarge):
        N.elements
    with pytest.raises(GroupTooLarge):
        list(N)


def test_element_list_that_disagrees_with_the_order_is_an_invariant_violation():
    g = CubeAutomorphism.translation_by(BitVector.all_ones(5))
    h = CubeAutomorphism.translation_by(BitVector(5, 1))
    with pytest.raises(InvariantViolated):
        CubeGroup(5, [g, h], 2).elements  # walks to order 4
    with pytest.raises(InvariantViolated):
        CubeGroup(5, [g], 4).elements  # walks to order 2
    with pytest.raises(InvariantViolated):
        min_distance(CubeGroup(5, [g, h], 2))  # the Schreier walk finds order 4


def test_a_stated_order_caps_the_walk():
    # the generators of Aut(Q_n) stated as a group of order 2 stop as soon as
    # the walk passes order 2; walked without a cap, pi(K) = S_n has more than
    # 2^20 parts at n = 10 and 12 and the walk ends in GroupTooLarge instead
    for n in (8, 10, 12):
        with pytest.raises(InvariantViolated):
            CubeGroup(n, standard_generators(n), 2).elements


def test_a_stated_order_above_the_walk_bound_keeps_the_part_bound(monkeypatch):
    monkeypatch.setattr(cube_symmetry, "_WALK_CAP", 100)
    with pytest.raises(GroupTooLarge):
        CubeGroup(6, standard_generators(6), 46080).elements  # 720 coordinate parts
    with pytest.raises(InvariantViolated):
        CubeGroup(6, standard_generators(6), 100).elements  # capped at the stated order
    assert len(CubeGroup(4, standard_generators(4), 384).elements) == 384  # 24 parts


def test_even_part_checks_the_index():
    odd = CubeAutomorphism.translation_by(BitVector(5, 1))
    assert _even_part(5, [odd], 2) == ((), 1)
    with pytest.raises(InvariantViolated):
        _even_part(5, [odd], 4)  # <e_1> has order 2, not 4


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
        if expected <= 4096:
            # the element list, built on first use, lists every element of N once
            N = normalizer(K, ambient)
            check_lists_the_closure(N, closure_oracle(N.generators, N.n))
            assert len({g.key() for g in N}) == expected
            assert all(k.conjugated_by(g) in K for g in N for k in K.generators)


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
        check_normalizer(K, ambient_scan_count(K) if is_translation(k) else centralizer_count(K))


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


def test_intersect_even_of_a_generator_only_normalizer():
    K = generate_group([CubeAutomorphism.translation_by(BitVector.all_ones(10))])
    N = normalizer(K, "full", cap=1)
    L = intersect_even(N)
    assert 2 * L.order == N.order == (1 << 10) * math.factorial(10)
    assert L.order == normalizer(K, "even").order
    assert all(g.is_even() for g in L.generators)


def test_even_part_and_conjugates_keep_the_cap():
    K = generate_group([CubeAutomorphism.translation_by(BitVector.all_ones(4))])
    N = normalizer(K, "full", cap=1)
    g = CubeAutomorphism(BitVector(4, 0b0110), Permutation.from_cycles(4, [(1, 2, 3)]))
    for L in (intersect_even(N), conjugate_group(N, g)):
        assert L.cap == 1 and L.order in (192, 384)
        with pytest.raises(GroupTooLarge):
            L.elements


# ---------------------------------------------------------------------------
# Conjugacy: the transporter from K to L
# ---------------------------------------------------------------------------


def conjugacy_brute(K, L):
    """Search all of Aut(Q_n) for g with g^-1 K g = L."""
    n = K.n
    if K.order != L.order:
        return None
    for images in itertools.permutations(range(n)):
        tau = Permutation(images)
        for y in range(1 << n):
            g = CubeAutomorphism(BitVector(n, y), tau)
            if all(k.conjugated_by(g) in L for k in K.generators):
                return g
    return None


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_conjugating_element_matches_brute_force(n):
    # two independent draws of each order, and a conjugate of the first;
    # fewer draws at n = 6, where one brute-force scan covers 46,080 elements
    rng = random.Random(f"conjugacy:{n}")
    pairs = []
    for order in (2, 4, 8):
        for _ in range(4 if n < 6 else 1):
            K = random_subgroup(n, order, rng)
            pairs.append((K, random_subgroup(n, order, rng)))
            pairs.append((K, conjugate_group(K, random_element(n, rng))))
    verdicts = []
    for K, L in pairs:
        g = conjugating_element(K, L)
        verdicts.append(g is not None)
        assert verdicts[-1] == (conjugacy_brute(K, L) is not None), (K, L)
        if g is not None:
            assert all(k.conjugated_by(g) in L for k in K.generators)
            assert same_group_as(conjugate_group(K, g), L)
    assert all(verdicts[1::2])  # the conjugates


def test_conjugating_element_edge_cases():
    def translations(n, *supports):
        return generate_group(
            [CubeAutomorphism.translation_by(BitVector.from_support(n, c)) for c in supports]
        )

    K2, K4 = translations(5, (1, 2, 3)), translations(5, (1, 2), (3, 4))
    assert conjugating_element(K2, K4) is None
    assert conjugating_element(K4, K2) is None
    with pytest.raises(DimensionMismatch):
        conjugating_element(K2, translations(6, (1, 2, 3)))
    assert conjugating_element(CubeGroup.trivial(5), CubeGroup.trivial(5)).is_identity()
    K9 = translations(9, (1, 2, 3, 4, 5), (5, 6, 7, 8, 9))
    with pytest.raises(Unsupported):
        conjugating_element(K9, K9)


def test_sampler_draws_are_pinned():
    # the order-4 cyclic draws of both samplers, recorded before they shared
    # one helper; a changed draw changes these groups or the ones after them
    rng = random.Random("pin-cyclic4")
    assert [describe_group(random_subgroup(n, 4, rng)) for n in (5, 6, 8)] == [
        "n=5 order=4 gens=[x=11000 perm=(1 3)(4 5)]",
        "n=6 order=4 gens=[x=000001 perm=(1 5)(2 3)(4 6)]",
        "n=8 order=4 gens=[x=01110000 perm=(1 3)(7 8)]",
    ]
    drawn = sample_groups_with_min_distance(8, 2, 8, random.Random("pin-mindist"))
    assert [describe_group(K) for K in drawn] == [
        "n=8 order=2 gens=[x=01001101 perm=id]",
        "n=8 order=4 gens=[x=00111100 perm=(3 7)(6 8)]",
        "n=8 order=2 gens=[x=00110010 perm=id]",
        "n=8 order=2 gens=[x=11111001 perm=(1 3)]",
        "n=8 order=2 gens=[x=10000111 perm=(1 6)(2 5)]",
        "n=8 order=4 gens=[x=10001011 perm=(1 4)(5 6)]",
        "n=8 order=2 gens=[x=11001111 perm=id]",
        "n=8 order=2 gens=[x=00010100 perm=id]",
    ]


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
    assert same_group_as(K2, K)
