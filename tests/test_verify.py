import hashlib
import itertools
import json
import math
import random
import signal

import pytest

from cubequot import (
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    Permutation,
    check_even_lemma,
    check_halved_iso,
    check_main_even,
    check_theorem_class_dist,
    generate_group,
    run_claim,
    run_example,
)
from cubequot.errors import PreconditionViolated, UnknownClaim, UnknownExample
from cubequot.verify import (
    CLAIMS,
    FAILS,
    HOLDS,
    ClaimReport,
    brute_force_min_distance,
    class_dist_grid,
    describe_group,
    elements_with_distance_at_least,
    exhaustive_order2_subgroups,
    random_involution,
    random_subgroup,
    reports_to_json,
    run_all,
)
from cubequot.cube_symmetry import _cycle_data
from cubequot.verify import _quaternion_group, _rng

from conftest import folded_cube_group


REQUIRED_CLAIM_IDS = {
    "lem-nbd",
    "lem-trick",
    "lem-cycle",
    "lem-nbd2",
    "lem-covering",
    "lem-a-c",
    "lem-counting",
    "thm-class-dist",
    "cor-main-rect",
    "prop-conjugate",
    "thm-conjugate-simple",
    "lem-even",
    "prop-halved",
    "cor-odd-iso",
    "ex-exp-halved",
    "lem-loc-tn",
    "thm-main-even",
    "thm-main-aut",
    "ex-large",
    "ex-k2",
    "ex-not-vt",
    "ex-lt-not-vt",
    "ex-valency-m",
    "small-n-halved-cubes",
}


def test_registry_covers_every_required_claim():
    assert REQUIRED_CLAIM_IDS <= set(CLAIMS)
    for cid, claim in CLAIMS.items():
        assert claim.claim_id == cid
        assert claim.description


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaim):
        run_claim("nonsense")


def test_unknown_example_raises():
    with pytest.raises(UnknownExample):
        run_example("nonsense")


def test_run_example_aliases():
    r1 = run_example("exp-halved")
    r2 = run_example("ex-exp-halved")
    assert r1.claim_id == r2.claim_id == "ex-exp-halved"
    assert r1.status == HOLDS


def test_reports_deterministic_for_fixed_seed():
    ids = ["ex-exp-halved", "lem-nbd", "prop-conjugate"]
    a = reports_to_json([run_claim(c, seed=7) for c in ids])
    b = reports_to_json([run_claim(c, seed=7) for c in ids])
    assert a == b
    # a different seed changes sampled parameters but not validity
    c = [run_claim(cid, seed=8) for cid in ids]
    assert all(r.status == HOLDS for r in c)


def test_stable_serialization_drops_runtime():
    r = ClaimReport("x", HOLDS, {}, {}, runtime_ms=12.5)
    stable = r.to_json_dict(stable=True)
    assert "runtime_ms" not in stable
    assert r.to_json_dict(stable=False)["runtime_ms"] == 12.5


def test_exhaustive_order2_count_n4():
    # involutions of Aut(Q_4): 2^4-1 translations, 10 fixed-vector choices
    # per 2-cycle class times 6 transpositions... cross-check by brute count
    import itertools

    groups = list(exhaustive_order2_subgroups(4))
    brute = 0
    for images in itertools.permutations(range(4)):
        p = Permutation(images)
        if not p.compose(p).is_identity():
            continue
        for bits in range(16):
            g = CubeAutomorphism(BitVector(4, bits), p)
            if g.is_identity() or not g.compose(g).is_identity():
                continue
            brute += 1
    assert len(groups) == brute
    assert all(K.order == 2 for K in groups)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exhaustive_order2_count_and_order(n):
    # an involution (x, sigma) with m 2-cycles in sigma has x constant on each
    # 2-cycle: 2^(n-m) choices over n! / (m! 2^m (n-2m)!) such sigma
    involutions = sum(
        math.factorial(n) // (math.factorial(m) * 2**m * math.factorial(n - 2 * m)) * 2 ** (n - m)
        for m in range(n // 2 + 1)
    )
    groups = list(exhaustive_order2_subgroups(n))
    assert len(groups) == involutions - 1
    sigmas = [K.generators[0].perm.images for K in groups]
    assert sigmas[0] == tuple(range(n)) and sigmas == sorted(sigmas)


def test_brute_force_min_distance_agrees():
    from cubequot import min_distance

    for n in (4, 6):
        for i in range(10):
            K = random_subgroup(n, 2 * (1 + i % 2), _rng(0, "bf", n, i))
            assert brute_force_min_distance(K) == min_distance(K)


def orbit_map_loop(Q, images):
    """The per-vertex loop `induced_map` replaced: the image of each orbit's
    first vertex, or None when a later vertex of the orbit disagrees."""
    mapping = [-1] * Q.vertex_count
    for v, dst in enumerate(images):
        src = Q.orbit_index[v]
        if mapping[src] == -1:
            mapping[src] = dst
        elif mapping[src] != dst:
            return None
    return mapping


def test_orbit_map_matches_vertex_loop():
    import numpy as np

    from cubequot import conjugate_group
    from cubequot.quotient import build_quotient, image_tables, induced_map
    from cubequot.verify import random_automorphism

    rng = _rng(0, "orbit-map")
    induced = 0
    for n in (4, 5, 6):
        for order in (2, 4, 8):
            K = random_subgroup(n, order, rng)
            g = random_automorphism(n, rng)
            QK, QL = build_quotient(K), build_quotient(conjugate_group(K, g))
            table = image_tables([(g.translation.bits, g.perm.images)])[0]
            vs = np.arange(1 << n)
            index = np.array(QL.orbit_index)
            for images in (index[table], index[vs ^ 1], vs, index[table] + (vs & 1)):
                expected = orbit_map_loop(QK, images.tolist())
                assert induced_map(QK, images) == expected
                induced += expected is not None
    assert 0 < induced < 36


def test_check_theorem_class_dist_examples():
    K = _quaternion_group()
    r = check_theorem_class_dist(K, 2)
    assert r.status == HOLDS
    assert r.witnesses["local_structure"] is False
    r = check_theorem_class_dist(folded_cube_group(8), 3)
    assert r.status == HOLDS and r.witnesses["local_structure"] is True
    r = check_theorem_class_dist(CubeGroup.trivial(6), 3)
    assert r.status == HOLDS and r.witnesses["d_K"] == float("inf")


def test_check_main_even_rejects_bad_preconditions():
    with pytest.raises(PreconditionViolated):
        check_main_even(generate_group([CubeAutomorphism.translation_by(BitVector(6, 1))]))


def test_check_even_lemma_even_group():
    r = check_even_lemma(folded_cube_group(8))
    assert r.status == HOLDS
    assert r.witnesses["bipartite"] is True


def test_check_even_lemma_low_distance_skips_halving():
    K = generate_group(
        [CubeAutomorphism.translation_by(BitVector.from_support(5, (1, 2)))]
    )
    r = check_even_lemma(K)
    assert r.status == HOLDS
    assert "double_halves_isomorphic_to_distance2" not in r.witnesses


def test_check_halved_iso_quaternion():
    r = check_halved_iso(_quaternion_group())
    assert r.status == HOLDS
    assert r.witnesses["halves_isomorphic"] is False
    assert r.witnesses["normalizer_non_even"] is False


def test_element_scan_matches_closed_form_n4():
    from cubequot import element_min_distance

    hits = {
        (y, images): d for y, images, d in elements_with_distance_at_least(4, 1)
    }
    import itertools

    for images in itertools.permutations(range(4)):
        for y in range(16):
            g = CubeAutomorphism(BitVector(4, y), Permutation(images))
            if g.is_identity():
                continue
            d = element_min_distance(g)
            if d >= 1:
                assert hits[(y, images)] == d
            else:
                assert (y, images) not in hits


def test_run_all_fail_fast_ordering():
    reports = run_all(seed=0, claims=["ex-exp-halved", "ex-valency-m"])
    assert [r.claim_id for r in reports] == ["ex-exp-halved", "ex-valency-m"]
    assert all(r.status == HOLDS for r in reports)


def test_fast_claims_hold():
    # the cheap end of the registry, exercised directly; the heavy grid
    # claims run in the acceptance module and through the CLI
    for cid in (
        "ex-exp-halved",
        "ex-valency-m",
        "ex-not-vt",
        "small-n-halved-cubes",
        "thm-main-aut",
        "lem-loc-tn",
        "cor-main-rect",
        "lem-even",
        "prop-halved",
        "lem-nbd",
        "lem-nbd2",
        "lem-trick",
        "lem-cycle",
        "lem-a-c",
        "lem-counting",
        "prop-conjugate",
    ):
        report = run_claim(cid, seed=0)
        assert report.status == HOLDS, (cid, report.parameters, report.witnesses)


def test_run_all_halts_on_failure():
    from cubequot.verify import Claim

    def always_fails(seed):
        return ClaimReport(
            "zz-doomed", FAILS, {}, {"counterexample": "synthetic"}
        )

    CLAIMS["zz-doomed"] = Claim("zz-doomed", "synthetic failing claim", always_fails)
    try:
        reports = run_all(seed=0, claims=["zz-doomed", "ex-valency-m"])
        assert [r.claim_id for r in reports] == ["zz-doomed"]
        assert reports[0].status == FAILS
        assert reports[0].witnesses["counterexample"] == "synthetic"
        reports = run_all(
            seed=0, claims=["zz-doomed", "ex-valency-m"], fail_fast=False
        )
        assert len(reports) == 2
    finally:
        del CLAIMS["zz-doomed"]


@pytest.fixture
def alarm():
    """Fail a call that does not return within 10 s instead of hanging the suite."""

    def expire(*_):
        raise TimeoutError("the call did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_random_subgroup_without_such_subgroup_raises(alarm):
    # Aut(Q_1) (order 2) has no subgroup of order 4, and Aut(Q_2) (order 8)
    # none of order 6; no translation group has either order at that n
    with pytest.raises(PreconditionViolated):
        random_subgroup(1, 4, random.Random(0))
    with pytest.raises(PreconditionViolated):
        random_subgroup(2, 6, random.Random(0))


def unbounded_element_scan(n, threshold):
    """The scan without the cycle-count bound: every permutation is scanned."""
    import numpy as np

    ys = np.arange(1 << n, dtype=np.int64)
    out = []
    for images in itertools.permutations(range(n)):
        fixed_mask, cycle_masks = _cycle_data(images)
        d = np.bitwise_count(ys & fixed_mask)
        for mask in cycle_masks:
            d += np.bitwise_count(ys & mask) & 1
        for y in np.nonzero(d >= threshold)[0]:
            y = int(y)
            if y == 0 and images == tuple(range(n)):
                continue
            out.append((y, images, int(d[y])))
    return out


def test_bounded_element_scan_equals_unbounded_scan():
    for n in range(3, 7):
        for threshold in range(n + 2):
            assert elements_with_distance_at_least(n, threshold) == unbounded_element_scan(
                n, threshold
            ), (n, threshold)


def from_cycles_random_involution(n, rng, force_even=False):
    """random_involution as built through Permutation.from_cycles and the
    checked constructors: the same draws, in the same order."""
    while True:
        m = rng.randrange(0, n // 2 + 1)
        coords = list(range(1, n + 1))
        rng.shuffle(coords)
        cycles = [(coords[2 * i], coords[2 * i + 1]) for i in range(m)]
        fixed = coords[2 * m :]
        bits = 0
        for a, b in cycles:
            if rng.randrange(2):
                bits |= (1 << (a - 1)) | (1 << (b - 1))
        for i in fixed:
            if rng.randrange(2):
                bits |= 1 << (i - 1)
        if force_even and bits.bit_count() % 2 == 1:
            if fixed:
                bits ^= 1 << (fixed[0] - 1)
            else:
                continue
        sigma = Permutation.from_cycles(n, cycles) if cycles else Permutation.identity(n)
        g = CubeAutomorphism(BitVector(n, bits), sigma)
        if not g.is_identity():
            return g


@pytest.mark.parametrize("force_even", [False, True])
def test_random_involution_equals_from_cycles_construction(force_even):
    rng, oracle_rng = random.Random(13), random.Random(13)
    for i in range(1000):
        n = 2 + i % 9
        g = random_involution(n, rng, force_even=force_even)
        h = from_cycles_random_involution(n, oracle_rng, force_even=force_even)
        assert g == h and g.key() == h.key()
        assert type(g.perm.images) is tuple and g.compose(g).is_identity()
    assert rng.getstate() == oracle_rng.getstate()


def test_class_dist_grid_pinned():
    # sha256 prefix of the newline-joined describe_group strings of
    # class_dist_grid(0), recorded before random_involution built its
    # elements from their keys
    text = "\n".join(describe_group(K) for K in class_dist_grid(0))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "bbc09375753251de"


def test_random_even_involution_needs_two_coordinates(alarm):
    with pytest.raises(PreconditionViolated):
        random_involution(1, random.Random(0), force_even=True)
    assert random_involution(1, random.Random(0)).translation.bits == 1
    assert random_involution(2, random.Random(0), force_even=True).is_even()


def edge_toggled(build):
    """build_quotient with the edge between the first and the last orbit
    added, or removed when present: a quotient one edge away from the true one."""
    from cubequot.graph_core import SimpleGraph
    from cubequot.quotient import QuotientGraph

    def tampered(K):
        Q = build(K)
        G = Q.graph
        if G.n < 2:
            return Q
        edges = sorted(set(G.edges()) ^ {(0, G.n - 1)})
        graph = SimpleGraph.from_edges(G.n, edges, G.labels)
        return QuotientGraph(Q.n, Q.group, Q.reps, Q.orbit_index, graph)

    return tampered


def report_digest(claim_id):
    text = reports_to_json([run_claim(claim_id, seed=0)])
    return json.loads(text)[0]["status"], hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "claim, digest",
    [
        ("lem-nbd", "dc2d1d033111a7da"),
        ("lem-covering", "0b8b51de78aa045d"),
        ("lem-even", "ba5da8af2142fabb"),
        ("ex-valency-m", "183b494776e6e800"),
        ("lem-loc-tn", "780a2432429993ea"),
        ("prop-conjugate", "37a410a17cee2e72"),
    ],
)
def test_claims_fail_on_a_tampered_quotient_pinned(claim, digest, monkeypatch):
    # the first counterexample each claim reports when every quotient it
    # builds has one edge toggled; sha256 of the whole report JSON, recorded
    # while each claim wrote its failure report by hand
    from cubequot import verify

    monkeypatch.setattr(verify, "build_quotient", edge_toggled(verify.build_quotient))
    assert report_digest(claim) == ("FAILS", digest)


@pytest.mark.parametrize(
    "claim, digest",
    [("lem-cycle", "e47fa2aedcff814c"), ("lem-counting", "1edb5c76dcefc88b")],
)
def test_claims_skip_when_no_group_qualifies_pinned(claim, digest, monkeypatch):
    # with every d_K read as 2, no grid group has 3 <= d_K < inf
    # (lem-cycle) or a level l >= 1 with d_K >= 2l + 1 (lem-counting)
    from cubequot import verify

    monkeypatch.setattr(verify, "min_distance", lambda K: 2)
    assert report_digest(claim) == ("SKIPPED", digest)
