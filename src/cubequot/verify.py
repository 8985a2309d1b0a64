"""Executable verification of the structural claims this package rests on.

Every registered claim binds one statement about cube quotients (a lemma,
theorem, corollary, or worked example) to a seeded, deterministic check
with recorded witnesses. Universally quantified statements are checked on
a sampling grid; reports record the grid and never claim proof. A check
that fails must carry a concrete counterexample witness.

A claim is one check registered with its id and statement:
`@_claim("lem-x", "The statement.")` over `def _lem_x(seed)`. The check
returns (outcome, parameters, witnesses): True with what it covered, False
with where its first counterexample lies and that counterexample, or
SKIPPED when no case qualifies. It names no claim id; the registry builds
the `ClaimReport`. The grid lemmas read their groups and d_K from `_grid`.
Kernels (quotients, spheres, induced maps, parameters) come from the
library; this module samples groups and compares.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .covering import deck_group, lift_covering, verify_covering
from .cube_symmetry import (
    INFINITY,
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    Permutation,
    _cycle_data,
    conjugate_group,
    conjugating_element,
    element_min_distance,
    generate_group,
    intersect_even,
    is_even,
    is_semiregular,
    min_distance,
    normalizer,
)
from .errors import (
    GroupTooLarge,
    NotBipartite,
    PreconditionViolated,
    UnknownClaim,
    UnknownExample,
    Unsupported,
)
from .graph_core import (
    UNDEFINED,
    VACUOUS,
    SimpleGraph,
    bfs_levels,
    bipartite_double,
    bipartite_parts,
    distance2_graph,
    halved_graphs,
    is_locally_triangular,
    is_rectagraph,
    neighbor_table,
    sphere_sizes,
)
from .iso_aut import (
    are_isomorphic,
    automorphism_group,
    verify_isomorphism,
)
from .perm_groups import orbit_minima
from .quotient import (
    QuotientGraph,
    build_quotient,
    image_tables,
    induced_map,
    natural_covering,
    quotient_params,
    sphere,
)

HOLDS = "HOLDS"
FAILS = "FAILS"
SKIPPED = "SKIPPED"


@dataclass
class ClaimReport:
    """Outcome of one claim check with structured evidence."""

    claim_id: str
    status: str
    parameters: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    runtime_ms: float = 0.0

    def to_json_dict(self, stable: bool = True) -> dict:
        out = {
            "claim_id": self.claim_id,
            "status": self.status,
            "parameters": _jsonify(self.parameters),
            "witnesses": _jsonify(self.witnesses),
        }
        if not stable:
            out["runtime_ms"] = self.runtime_ms
        return out


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if value is INFINITY:
        return "inf"
    if value is UNDEFINED:
        return "UNDEFINED"
    if value is VACUOUS:
        return "VACUOUS"
    # numpy is imported on first use; while it is not loaded, no value is a numpy scalar
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.integer):
        return int(value)
    if isinstance(value, BitVector):
        return value.to_string()
    if isinstance(value, (CubeAutomorphism, Permutation)):
        return repr(value)
    if isinstance(value, CubeGroup):
        return describe_group(value)
    return value


def describe_group(K: CubeGroup) -> str:
    gens = "; ".join(
        f"x={g.translation.to_string()} perm={g.perm.cycle_string()}"
        for g in K.generators
    )
    return f"n={K.n} order={K.order} gens=[{gens}]"


def reports_to_json(reports: Sequence[ClaimReport], stable: bool = True) -> str:
    return (
        json.dumps(
            [r.to_json_dict(stable=stable) for r in reports],
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )


# ---------------------------------------------------------------------------
# Sampling helpers (all deterministic under a seed)
# ---------------------------------------------------------------------------


def _rng(seed, *scope) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def random_automorphism(n: int, rng: random.Random) -> CubeAutomorphism:
    translation = BitVector(n, rng.randrange(1 << n))
    images = list(range(n))
    rng.shuffle(images)
    return CubeAutomorphism(translation, Permutation(images))


def random_involution(
    n: int, rng: random.Random, force_even: bool = False
) -> CubeAutomorphism:
    """A uniform-ish non-identity element of order 2."""
    if n < (2 if force_even else 1):
        raise PreconditionViolated(f"Aut(Q_{n}) has no {'even ' if force_even else ''}involution")
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
        if bits or cycles:
            images = list(range(n))
            for a, b in cycles:
                images[a - 1], images[b - 1] = b - 1, a - 1
            return CubeAutomorphism._from_key(n, bits, tuple(images))


def _random_cyclic4(n: int, rng: random.Random) -> Optional[CubeGroup]:
    """<(y, sigma)> for sigma the coordinate part of a random involution and a
    random y, when that is cyclic of order 4; None when the draw is not."""
    sigma = random_involution(n, rng).perm
    if sigma.is_identity():
        return None
    g = CubeAutomorphism(BitVector(n, rng.randrange(1 << n)), sigma)
    if g.compose(g).is_identity():
        return None
    return generate_group([g], cap=5)


def random_subgroup(n: int, order: int, rng: random.Random) -> CubeGroup:
    """A random subgroup of the requested order (2, 4, or 8)."""
    if order == 2:
        return generate_group([random_involution(n, rng)])
    for _ in range(500):
        if order == 4 and rng.randrange(2):
            K = _random_cyclic4(n, rng)
            if K is None:
                continue
        else:
            gens = [random_involution(n, rng) for _ in range(2 if order == 4 else 3)]
            try:
                K = generate_group(gens, cap=order + 1)
            except GroupTooLarge:
                continue
        if K.order == order:
            return K
    # fallback: independent translations, when order = 2^dim with dim <= n
    dim = order.bit_length() - 1
    if order != 1 << dim or not 1 <= dim <= n:
        raise PreconditionViolated(f"no translation subgroup of order {order} at n={n}")
    while True:
        vecs = [BitVector(n, rng.randrange(1, 1 << n)) for _ in range(dim)]
        K = generate_group([CubeAutomorphism.translation_by(v) for v in vecs], cap=order + 1)
        if K.order == order:
            return K


def sample_subgroups(
    n: int, count: int, rng: random.Random, orders: Sequence[int] = (2, 4, 8)
) -> list[CubeGroup]:
    return [random_subgroup(n, orders[i % len(orders)], rng) for i in range(count)]


def exhaustive_order2_subgroups(n: int) -> Iterator[CubeGroup]:
    """All subgroups of order 2, deterministically ordered."""
    for images in itertools.permutations(range(n)):  # the identity comes first
        if any(images[images[j]] != j for j in range(n)):
            continue
        sigma = Permutation(images)
        fix_free = [j for j in range(n) if images[j] == j]
        units = [1 << j for j in fix_free] + list(sigma.cycle_masks())
        for pick in range(1 << len(units)):
            bits = 0
            for i, u in enumerate(units):
                if (pick >> i) & 1:
                    bits |= u
            g = CubeAutomorphism(BitVector(n, bits), sigma)
            if g.is_identity():
                continue
            yield generate_group([g])


def brute_force_min_distance(K: CubeGroup):
    """Independent route to d_K: scans all 2^n vertices per element."""
    import numpy as np

    if K.is_trivial:
        return INFINITY
    moved = image_tables([g.key() for g in K.non_identity()])
    return int(np.bitwise_count(moved ^ np.arange(1 << K.n)).min())


# ---------------------------------------------------------------------------
# Vectorized element scans over the whole ambient group
# ---------------------------------------------------------------------------

def elements_with_distance_at_least(
    n: int, threshold: int
) -> list[tuple[int, tuple[int, ...], int]]:
    """Exhaustive scan of all 2^n n! elements of Aut(Q_n).

    Returns (translation bits, permutation images, distance) for every
    non-identity element whose vertex displacement distance reaches the
    threshold. Uses the per-permutation closed form, vectorized over the
    translation part. The displacement of (y, sigma) counts fixed points
    of sigma and non-trivial cycles, at most one each, so a permutation
    with fewer of them together than the threshold is skipped unscanned.
    """
    import numpy as np

    ys = np.arange(1 << n, dtype=np.int64)
    identity = tuple(range(n))
    out = []
    for images in itertools.permutations(range(n)):
        fixed_mask, cycle_masks = _cycle_data(images)
        if fixed_mask.bit_count() + len(cycle_masks) < threshold:
            continue
        d = np.bitwise_count(ys & fixed_mask)
        for mask in cycle_masks:
            d += np.bitwise_count(ys & mask) & 1
        for y in np.nonzero(d >= threshold)[0]:
            y = int(y)
            if y == 0 and images == identity:
                continue
            out.append((y, images, int(d[y])))
    return out


# ---------------------------------------------------------------------------
# Claim registry plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    runner: Callable[[int], ClaimReport]


CLAIMS: dict[str, Claim] = {}


def _claim(claim_id: str, description: str):
    """Register check(seed) -> (outcome, parameters, witnesses) as a claim
    whose runner reports the outcome SKIPPED as SKIPPED, and any other as
    HOLDS when true and FAILS when false."""

    def wrap(check: Callable[[int], tuple]) -> Callable[[int], tuple]:
        def runner(seed: int) -> ClaimReport:
            outcome, parameters, witnesses = check(seed)
            status = SKIPPED if outcome is SKIPPED else HOLDS if outcome else FAILS
            return ClaimReport(claim_id, status, parameters, witnesses)

        CLAIMS[claim_id] = Claim(claim_id, description, runner)
        return check

    return wrap


def run_claim(claim_id: str, seed: int = 0) -> ClaimReport:
    if claim_id not in CLAIMS:
        raise UnknownClaim(f"unknown claim id {claim_id!r}")
    start = time.perf_counter()
    report = CLAIMS[claim_id].runner(seed)
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


def run_all(
    seed: int = 0, claims: Optional[Sequence[str]] = None, fail_fast: bool = True
) -> list[ClaimReport]:
    """Run claims in claim-id order; a FAILS halts the suite by default."""
    ids = sorted(CLAIMS) if claims is None else list(claims)
    reports = []
    for cid in ids:
        report = run_claim(cid, seed=seed)
        reports.append(report)
        if fail_fast and report.status == FAILS:
            break
    return reports


def _report(claim_id: str, ok: bool, parameters: dict, witnesses: dict) -> ClaimReport:
    """The report of an exported per-group check."""
    return ClaimReport(claim_id, HOLDS if ok else FAILS, parameters, witnesses)


# ---------------------------------------------------------------------------
# Shared evaluation helpers
# ---------------------------------------------------------------------------


def cube_graph(n: int) -> SimpleGraph:
    return build_quotient(CubeGroup.trivial(n)).graph


def _translation_group(n: int, support: Optional[Sequence[int]] = None) -> CubeGroup:
    """The group of order 2 of the translation by e_support, all ones by default."""
    y = BitVector.all_ones(n) if support is None else BitVector.from_support(n, support)
    return generate_group([CubeAutomorphism.translation_by(y)])


def _weight_vectors(n: int, w: int) -> list[int]:
    return [sum(1 << i for i in comb) for comb in itertools.combinations(range(n), w)]


def _cube_like(params, valency: int, level: int) -> bool:
    """Regular of the valency with a_{i-1} = 0 and c_i = i for i <= level."""
    if not params[0].is_regular or params[0].valency != valency:
        return False
    return all(
        params[i - 1].a_value in (0, VACUOUS) and params[i].c_value in (i, VACUOUS)
        for i in range(1, level + 1)
    )


def has_cube_local_structure(Q: QuotientGraph, level: int, valency: Optional[int] = None) -> bool:
    """Regular of valency n (or `valency`) with a_{i-1} = 0 and c_i = i for i <= level."""
    return _cube_like(quotient_params(Q, level), Q.n if valency is None else valency, level)


def _spheres(Q: QuotientGraph, x: int, max_level: int) -> list[set[int]]:
    """The orbit ids at distance 0..max_level from x^K, from one search."""
    levels = bfs_levels(neighbor_table(Q.graph), [Q.orbit_index[x]], max_level)
    found = [set(level.nonzero()[0].tolist()) for level in levels]
    return found + [set()] * (max_level + 1 - len(found))


def _weight_classes(Q: QuotientGraph, x: int, level: int) -> set[int]:
    """{(x+e)^K : wt(e) = level}."""
    return {Q.orbit_index[x ^ e] for e in _weight_vectors(Q.n, level)}


def _default_grid(seed: int, per_n: int = 10, ns: Sequence[int] = (4, 5, 6, 7, 8)):
    """A modest sampled grid of subgroups for the distance-parameter claims."""
    groups: list[CubeGroup] = []
    for n in ns:
        rng = _rng(seed, "grid", n)
        groups.extend(sample_subgroups(n, per_n, rng))
    return groups


def _grid(seed: int):
    """The grid the distance-parameter lemmas share: their success
    parameters, and (K, d_K) per group in grid order, each d_K taken when
    its group is reached."""
    groups = _default_grid(seed, per_n=6)
    return {"groups": len(groups)}, ((K, min_distance(K)) for K in groups)


def class_dist_grid(seed: int) -> list[CubeGroup]:
    """Exhaustive semiregular order-2 subgroups at n=5 plus the random grid."""
    groups = [K for K in exhaustive_order2_subgroups(5) if is_semiregular(K)]
    for n in range(6, 11):
        rng = _rng(seed, "classdist", n)
        groups.extend(sample_subgroups(n, 100, rng))
    return groups


# ---------------------------------------------------------------------------
# Per-group check operations
# ---------------------------------------------------------------------------


def check_theorem_class_dist(K: CubeGroup, level: int) -> ClaimReport:
    """Local cube structure up to `level` iff d_K >= 2*level + 1."""
    Q = build_quotient(K)
    cond_local = has_cube_local_structure(Q, level)
    d = min_distance(K)
    cond_distance = d >= 2 * level + 1
    return _report(
        "thm-class-dist",
        cond_local == cond_distance,
        {"group": describe_group(K), "level": level},
        {"local_structure": cond_local, "d_K": d, "distance_bound": cond_distance},
    )


def check_main_even(K: CubeGroup) -> ClaimReport:
    """Even, d_K >= 7: both halves connected and locally triangular."""
    d = min_distance(K)
    if not (is_even(K) and d >= 7 and K.n >= 2):
        raise PreconditionViolated("check_main_even needs an even group with d_K >= 7")
    Q = build_quotient(K)
    halves = halved_graphs(Q.graph)
    ok = True
    witnesses = {}
    for idx, h in enumerate(halves):
        connected = h.is_connected()
        locally = is_locally_triangular(h, Q.n)
        witnesses[f"half{idx}"] = {
            "vertices": h.n, "connected": connected, "locally_triangular": locally
        }
        ok = ok and connected and locally
    return _report(
        "thm-main-even", ok, {"group": describe_group(K), "d_K": d}, witnesses
    )


def check_even_lemma(K: CubeGroup) -> ClaimReport:
    """Bipartite iff even; double and its halves for non-even groups."""
    import numpy as np

    d = min_distance(K)
    if d < 2:
        raise PreconditionViolated("check_even_lemma needs d_K >= 2")
    Q = build_quotient(K)
    witnesses: dict = {"d_K": d, "even": is_even(K)}
    ok = True
    if is_even(K):
        try:
            parts = bipartite_parts(Q.graph)
            expected0 = tuple(i for i, rep in enumerate(Q.reps) if rep.bit_count() % 2 == 0)
            ok = parts[0] == expected0
            witnesses["bipartite"] = True
            witnesses["parts_match_weight_parity"] = ok
        except NotBipartite as exc:
            ok = False
            witnesses["bipartite"] = False
            witnesses["odd_walk"] = exc.odd_walk
    else:
        try:
            bipartite_parts(Q.graph)
            ok = False
            witnesses["bipartite"] = True
        except NotBipartite as exc:
            witnesses["bipartite"] = False
            witnesses["odd_walk_length"] = len(exc.odd_walk) - 1
        L = intersect_even(K)
        QL = build_quotient(L)
        dbl = bipartite_double(Q.graph)
        # explicit isomorphism x^L -> (x^K, wt(x) mod 2)
        parity = np.bitwise_count(np.arange(1 << K.n)).astype(np.int64) & 1
        mapping = induced_map(QL, np.array(Q.orbit_index) + parity * Q.vertex_count)
        double_iso = mapping is not None and verify_isomorphism(QL.graph, dbl, mapping)
        witnesses["double_isomorphic_to_even_part_quotient"] = double_iso
        ok = ok and double_iso
        if d >= 4:
            pi2 = distance2_graph(Q.graph)
            halves_ok = True
            # half p is induced on the sorted part p; double vertex u + a V projects to u
            for h, part in zip(halved_graphs(dbl), bipartite_parts(dbl)):
                m = [u % Q.vertex_count for u in part]
                halves_ok = halves_ok and verify_isomorphism(h, pi2, m)
            witnesses["double_halves_isomorphic_to_distance2"] = halves_ok
            ok = ok and halves_ok
    return _report("lem-even", ok, {"group": describe_group(K)}, witnesses)


def check_halved_iso(K: CubeGroup) -> ClaimReport:
    """Non-even normalizer (or odd n) forces isomorphic halves."""
    d = min_distance(K)
    if not (is_even(K) and d >= 2):
        raise PreconditionViolated("check_halved_iso needs an even group with d_K >= 2")
    Q = build_quotient(K)
    h0, h1 = halved_graphs(Q.graph)
    witness_map = are_isomorphic(h0, h1)
    actually_iso = witness_map is not None
    witnesses: dict = {"halves_isomorphic": actually_iso, "d_K": d}
    ok = True
    try:
        N = normalizer(K, "full")
        n_non_even = not is_even(N)
        witnesses["normalizer_non_even"] = n_non_even
        if n_non_even:
            ok = actually_iso
    except Unsupported:
        witnesses["normalizer_non_even"] = "unsupported"
    if K.n % 2 == 1:
        witnesses["odd_dimension"] = True
        ok = ok and actually_iso
    return _report("prop-halved", ok, {"group": describe_group(K)}, witnesses)


# ---------------------------------------------------------------------------
# Registered claims
# ---------------------------------------------------------------------------


@_claim(
    "lem-nbd",
    "Every quotient vertex at distance l from x^K is (x+e)^K for some e of weight l.",
)
def _lem_nbd(seed: int):
    summary, cases = _grid(seed)
    checked = 0
    for K, _ in cases:
        Q = build_quotient(K)
        rng = _rng(seed, "nbd", checked)
        for _ in range(3):
            x = rng.randrange(1 << K.n)
            spheres = _spheres(Q, x, 3)
            for level in (1, 2, 3):
                ball, reach = spheres[level], _weight_classes(Q, x, level)
                checked += 1
                if not ball <= reach:
                    where = {"group": describe_group(K), "x": x, "level": level}
                    return False, where, {"sphere": sorted(ball), "weight_classes": sorted(reach)}
    return True, summary, {"checked_spheres": checked}


@_claim("lem-trick", "Distinct vertices in one orbit are at Hamming distance at least d_K.")
def _lem_trick(seed: int):
    summary, cases = _grid(seed)
    checked = 0
    for K, d in cases:
        if d is INFINITY:
            continue
        Q = build_quotient(K)
        orbits: dict[int, list[int]] = {}
        for v in range(1 << K.n):
            orbits.setdefault(Q.orbit_index[v], []).append(v)
        for members in orbits.values():
            for a, b in itertools.combinations(members, 2):
                checked += 1
                if (a ^ b).bit_count() < d:
                    witness = {"x": a, "y": b, "distance": (a ^ b).bit_count(), "d_K": d}
                    return False, {"group": describe_group(K)}, witness
    return True, summary, {"checked_pairs": checked}


@_claim("lem-cycle", "If 3 <= d_K < inf the quotient has a cycle of length d_K.")
def _lem_cycle(seed: int):
    import numpy as np

    summary, cases = _grid(seed)
    found = 0
    for K, d in cases:
        if not 3 <= d < INFINITY:
            continue
        Q = build_quotient(K)
        # witness: project a geodesic from x to x^k for a distance-realizing pair
        g = next(g for g in K.non_identity() if element_min_distance(g) == d)
        table = image_tables([g.key()])[0]
        x = int(np.argmax(np.bitwise_count(np.arange(1 << K.n) ^ table) == d))
        y = int(table[x])
        walk = [x]
        cur = x
        for i in range(K.n):
            if (x ^ y) >> i & 1:
                cur ^= 1 << i
                walk.append(cur)
        ids = [Q.orbit_index[v] for v in walk]
        distinct = len(set(ids[:-1])) == d and ids[-1] == ids[0]
        adjacent = all(Q.graph.has_edge(u, v) for u, v in zip(ids, ids[1:]))
        if not (distinct and adjacent and len(ids) - 1 == d):
            return False, {"group": describe_group(K), "d_K": d}, {"projected_walk": ids}
        found += 1
    if found == 0:
        return SKIPPED, summary, {"qualifying_groups": 0}
    return True, summary, {"cycles_verified": found}


@_claim("lem-nbd2", "If d_K >= 2l the distance-l sphere equals the weight-l classes exactly.")
def _lem_nbd2(seed: int):
    summary, cases = _grid(seed)
    checked = 0
    for K, d in cases:
        Q = build_quotient(K)
        rng = _rng(seed, "nbd2", checked)
        max_level = 3 if d is INFINITY else min(3, int(d) // 2)
        for level in range(1, max_level + 1):
            x = rng.randrange(1 << K.n)
            ball, reach = _spheres(Q, x, level)[level], _weight_classes(Q, x, level)
            checked += 1
            if ball != reach:
                where = {"group": describe_group(K), "x": x, "level": level, "d_K": d}
                return False, where, {"sphere": sorted(ball), "weight_classes": sorted(reach)}
    return True, summary, {"checked_spheres": checked}


@_claim(
    "lem-covering",
    "Natural map is a covering iff the quotient is regular of valency n iff d_K >= 3.",
)
def _lem_covering(seed: int):
    groups = class_dist_grid(seed)
    for K in groups:
        Q = build_quotient(K)
        covering = verify_covering(natural_covering(Q))
        regular = Q.graph.is_regular() and Q.graph.n > 0 and Q.graph.degree(0) == K.n
        distance = min_distance(K) >= 3
        if not (covering == regular == distance):
            witness = {"covering": covering, "regular_valency_n": regular, "d_K_ge_3": distance}
            return False, {"group": describe_group(K)}, witness
    return True, {"groups": len(groups)}, {"discrepancies": 0}


@_claim("lem-a-c", "d_K >= 2l forces a_{l-1} = 0; d_K >= 2l+1 forces c_l = l.")
def _lem_a_c(seed: int):
    summary, cases = _grid(seed)
    checked = 0
    for K, d in cases:
        Q = build_quotient(K)
        params = quotient_params(Q, 3)
        for level in (1, 2, 3):
            a, c = params[level - 1].a_value, params[level].c_value
            if d >= 2 * level and a not in (0, VACUOUS):
                witness = {"a_value": a}
            elif d >= 2 * level + 1 and c not in (level, VACUOUS):
                witness = {"c_value": c}
            else:
                checked += 1
                continue
            return False, {"group": describe_group(K), "level": level, "d_K": d}, witness
    return True, summary, {"checked_levels": checked}


@_claim(
    "lem-counting",
    "Valency-n regularity with a_{i-1}=0, c_i=i up to l gives spheres of size C(n, l).",
)
def _lem_counting(seed: int):
    summary, cases = _grid(seed)
    checked = 0
    for K, d in cases:
        max_level = 3 if d is INFINITY else min(3, (int(d) - 1) // 2)
        if max_level < 1:
            continue
        Q = build_quotient(K)
        if not has_cube_local_structure(Q, max_level):
            continue
        # sizes[level][u] = |S_level(u)|, zero beyond the last nonempty sphere
        sizes = [s.tolist() for s in sphere_sizes(neighbor_table(Q.graph), max_level)]
        sizes += [[0] * Q.vertex_count] * (max_level + 1 - len(sizes))
        for u in range(Q.vertex_count):
            for level in range(1, max_level + 1):
                size = sizes[level][u]
                checked += 1
                if size != math.comb(K.n, level):
                    where = {"group": describe_group(K), "vertex": u, "level": level}
                    return False, where, {"sphere_size": size, "expected": math.comb(K.n, level)}
    if checked == 0:
        return SKIPPED, summary, {"qualifying_groups": 0}
    return True, summary, {"checked_spheres": checked}


@_claim("thm-class-dist", "Local cube structure up to level l is equivalent to d_K >= 2l+1 (grid).")
def _thm_class_dist(seed: int):
    groups = class_dist_grid(seed)
    checked = 0
    for K in groups:
        Q = build_quotient(K)
        d = min_distance(K)
        params = quotient_params(Q, 3)
        params_ok = {level: _cube_like(params, K.n, level) for level in (1, 2, 3)}
        for level in (1, 2, 3):
            checked += 1
            if params_ok[level] != (d >= 2 * level + 1):
                where = {"group": describe_group(K), "level": level}
                return False, where, {"local_structure": params_ok[level], "d_K": d}
    return (
        True,
        {"groups": len(groups), "levels": [1, 2, 3]},
        {"checked": checked, "discrepancies": 0},
    )


@_claim(
    "cor-main-rect",
    "Valency-n rectagraphs with a_2=0, c_3=3 are exactly the quotients with d_K >= 7.",
)
def _cor_main_rect(seed: int):
    cases = [_translation_group(8), _translation_group(8, range(1, 8)), _translation_group(9)]
    witnesses = {}
    for idx, K in enumerate(cases):
        d = min_distance(K)
        Q = build_quotient(K)
        params = quotient_params(Q, 3)
        forward = (
            is_rectagraph(Q.graph)
            and params[0].valency == K.n
            and params[2].a_value in (0, VACUOUS)
            and params[3].c_value in (3, VACUOUS)
        )
        rng = _rng(seed, "mainrect", idx)
        perm = list(range(Q.vertex_count))
        rng.shuffle(perm)
        relabeled = Q.graph.relabeled(perm)
        cover = lift_covering(relabeled)
        deck = deck_group(cover)
        rebuilt = build_quotient(deck)
        w = are_isomorphic(rebuilt.graph, relabeled)
        backward = w is not None and verify_isomorphism(rebuilt.graph, relabeled, w)
        witnesses[describe_group(K)] = {
            "d_K": d,
            "rectagraph_params": forward,
            "lift_roundtrip_isomorphic": backward,
            "deck_order": deck.order,
        }
        if not (forward and backward and deck.order == K.order):
            return False, {"case": idx}, witnesses
    return True, {"cases": len(cases)}, witnesses


@_claim(
    "prop-conjugate",
    "Conjugation induces a quotient isomorphism commuting with the natural maps.",
)
def _prop_conjugate(seed: int):
    import numpy as np

    rng = _rng(seed, "propconj")
    checked = 0
    for n in (4, 5, 6, 7, 8):
        for _ in range(4):
            K = random_subgroup(n, rng.choice((2, 4, 8)), rng)
            g = random_automorphism(n, rng)
            L = conjugate_group(K, g)
            QK = build_quotient(K)
            QL = build_quotient(L)
            table = image_tables([g.key()])[0]
            mapping = induced_map(QK, np.array(QL.orbit_index)[table])
            consistent = mapping is not None
            ok = consistent and verify_isomorphism(QK.graph, QL.graph, mapping)
            checked += 1
            if not ok:
                where = {"group": describe_group(K), "g": repr(g)}
                return False, where, {"diagram_commutes": consistent}
    return True, {"pairs": checked}, {"all_diagrams_commute": True}


def sample_groups_with_min_distance(
    n: int, bound: int, count: int, rng: random.Random
) -> list[CubeGroup]:
    """Seeded subgroups with d_K >= bound, drawn from the families that admit it."""
    out: list[CubeGroup] = []
    tries = 0
    while len(out) < count and tries < 20000:
        tries += 1
        kind = rng.randrange(3)
        if kind == 0:
            w = rng.randrange(bound, n + 1)
            coords = rng.sample(range(1, n + 1), w)
            K = _translation_group(n, coords)
        elif kind == 1:
            g = random_involution(n, rng)
            K = generate_group([g])
        else:
            # order-4 cyclic: possible from n = 8 up
            K = _random_cyclic4(n, rng)
            if K is None:
                continue
        if min_distance(K) >= bound:
            out.append(K)
    return out


@_claim(
    "thm-conjugate-simple",
    "For d_K >= 5, quotients are isomorphic exactly when the groups are conjugate.",
)
def _thm_conjugate_simple(seed: int):
    rng = _rng(seed, "conjsimple")
    iso_checked = 0
    # conjugate pairs must give isomorphic quotients (n = 6, 7, 8)
    for n in (6, 7, 8):
        for K in sample_groups_with_min_distance(n, 5, 6, rng):
            g = random_automorphism(n, rng)
            L = conjugate_group(K, g)
            QK, QL = build_quotient(K), build_quotient(L)
            w = are_isomorphic(QK.graph, QL.graph)
            iso_checked += 1
            if w is None or not verify_isomorphism(QK.graph, QL.graph, w):
                where = {"group": describe_group(K), "g": repr(g)}
                return False, where, {"direction": "conjugate->isomorphic"}
    # both directions at n = 6
    supports = ((1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 2, 3, 4, 6), (1, 2, 3, 4, 5, 6))
    pool = [_translation_group(6, c) for c in supports]
    cross = 0
    for K, L in itertools.combinations(pool, 2):
        conj = conjugating_element(K, L) is not None
        w = are_isomorphic(build_quotient(K).graph, build_quotient(L).graph)
        iso = w is not None
        cross += 1
        if conj != iso:
            where = {"K": describe_group(K), "L": describe_group(L)}
            return False, where, {"conjugate": conj, "isomorphic": iso}
    # |Aut| = |N|/|K| on the folded 6-cube, both sides computed independently
    Kf = _translation_group(6)
    graph_side = automorphism_group(build_quotient(Kf).graph).order
    group_side = normalizer(Kf, "full").order // Kf.order
    return (
        graph_side == group_side == 23040,
        {"conjugate_pairs": iso_checked, "cross_pairs": cross},
        {"folded6_aut": graph_side, "folded6_normalizer_quotient": group_side},
    )


@_claim("lem-even", "Bipartiteness matches evenness; doubles collapse to the even part.")
def _lem_even(seed: int):
    rng = _rng(seed, "lemeven")
    cases = [_translation_group(7)]
    while len(cases) < 8:
        K = random_subgroup(rng.choice((4, 5, 6, 7)), rng.choice((2, 4)), rng)
        if min_distance(K) >= 2:
            cases.append(K)
    for K in cases:
        report = check_even_lemma(K)
        if report.status != HOLDS:
            return False, report.parameters, report.witnesses
    return True, {"groups": len(cases)}, {"all_parts_verified": True}


@_claim("prop-halved", "A non-even normalizer (or odd n) makes the two halves isomorphic.")
def _prop_halved(seed: int):
    rng = _rng(seed, "prophalved")
    cases: list[CubeGroup] = []
    while len(cases) < 10:
        K = generate_group([random_involution(rng.choice((4, 5, 6, 7, 8)), rng, force_even=True)])
        if is_even(K) and min_distance(K) >= 2:
            cases.append(K)
    verdicts = []
    for K in cases:
        report = check_halved_iso(K)
        verdicts.append(report.witnesses.get("halves_isomorphic"))
        if report.status != HOLDS:
            return False, report.parameters, report.witnesses
    return True, {"groups": len(cases)}, {"halves_isomorphic": verdicts}


@_claim("cor-odd-iso", "Odd n: halves of every bipartite quotient are isomorphic.")
def _cor_odd_iso(seed: int):
    n = 7
    checked = 0
    for K in exhaustive_order2_subgroups(n):
        if not is_even(K) or min_distance(K) < 2:
            continue
        Q = build_quotient(K)
        h0, h1 = halved_graphs(Q.graph)
        w = are_isomorphic(h0, h1)
        checked += 1
        if w is None:
            return False, {"group": describe_group(K)}, {"halves_isomorphic": False}
    return (
        True,
        {"dimension": n, "exhaustive_order2_groups": checked},
        {"all_halves_isomorphic": True},
    )


def _quaternion_group() -> CubeGroup:
    x = BitVector.from_support(8, (1, 2, 3, 4))
    y = BitVector.from_support(8, (1, 3, 6, 8))
    sigma = Permutation.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    tau = Permutation.from_cycles(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    return generate_group([CubeAutomorphism(x, sigma), CubeAutomorphism(y, tau)])


@_claim(
    "ex-exp-halved",
    "The order-8 quaternion-type subgroup of Aut(Q_8): d_K=4, spheres 13 and 14, halves differ.",
)
def _ex_exp_halved(seed: int):
    K = _quaternion_group()
    d = min_distance(K)
    Q = build_quotient(K)
    order2 = sum(1 for g in K.non_identity() if g.compose(g).is_identity())
    abelian = all(a.compose(b) == b.compose(a) for a, b in itertools.combinations(K.generators, 2))
    quaternion_type = K.order == 8 and order2 == 1 and not abelian
    s0 = len(sphere(Q, Q.orbit_index[0], 2))
    s1 = len(sphere(Q, Q.orbit_index[1], 2))
    bip = True
    try:
        bipartite_parts(Q.graph)
    except NotBipartite:
        bip = False
    h0, h1 = halved_graphs(Q.graph)
    halves_iso = are_isomorphic(h0, h1) is not None
    ok = (
        K.order == 8
        and quaternion_type
        and is_even(K)
        and d == 4
        and bip
        and Q.vertex_count == 32
        and (s0, s1) == (13, 14)
        and not halves_iso
    )
    return (
        ok,
        {"group": describe_group(K)},
        {
            "order": K.order,
            "quaternion_structure": quaternion_type,
            "even": is_even(K),
            "d_K": d,
            "bipartite": bip,
            "vertices": Q.vertex_count,
            "sphere2_of_zero": s0,
            "sphere2_of_e1": s1,
            "halves_isomorphic": halves_iso,
        },
    )


@_claim("lem-loc-tn", "d_K >= 7: every component of the distance-2 graph is locally triangular.")
def _lem_loc_tn(seed: int):
    cases = [CubeGroup.trivial(5), _translation_group(8), _translation_group(8, range(1, 8))]
    witnesses = {}
    for K in cases:
        d = min_distance(K)
        if d < 7:
            raise PreconditionViolated(f"case {describe_group(K)} has d_K={d} < 7")
        pi2 = distance2_graph(build_quotient(K).graph)
        # each neighbourhood lies inside its own component
        all_local = is_locally_triangular(pi2, K.n)
        witnesses[describe_group(K)] = {
            "d_K": d,
            "components": len(pi2.connected_components()),
            "all_locally_triangular": all_local,
        }
        if not all_local:
            return False, {}, witnesses
    return True, {"cases": len(cases)}, witnesses


@_claim("thm-main-even", "Even with d_K >= 7: halves are connected and locally triangular.")
def _thm_main_even(seed: int):
    cases = [CubeGroup.trivial(5), _translation_group(8), _not_vt_group(10)]
    witnesses = {}
    for K in cases:
        report = check_main_even(K)
        witnesses[describe_group(K)] = report.witnesses
        if report.status != HOLDS:
            return False, report.parameters, witnesses
    return True, {"cases": len(cases)}, witnesses


@_claim(
    "thm-main-aut",
    "Halved-quotient automorphism group is the even normalizer modulo the group.",
)
def _thm_main_aut(seed: int):
    witnesses = {}
    # trivial group at n = 5: halved 5-cube
    h0, _ = halved_graphs(cube_graph(5))
    graph_side = automorphism_group(h0).order
    group_side = normalizer(CubeGroup.trivial(5), "even").order
    witnesses["halved Q_5"] = {"graph_aut": graph_side, "even_normalizer_quotient": group_side}
    ok = graph_side == group_side == (1 << 4) * math.factorial(5)
    # folded 8-cube
    K = _translation_group(8)
    h0, _ = halved_graphs(build_quotient(K).graph)
    graph_side = automorphism_group(h0).order
    group_side = normalizer(K, "even").order // K.order
    witnesses["halved folded 8-cube"] = {
        "graph_aut": graph_side, "even_normalizer_quotient": group_side
    }
    ok = ok and graph_side == group_side == (1 << 6) * math.factorial(8)
    return ok, {"cases": 2}, witnesses


@_claim(
    "ex-large",
    "Groups with d_K in {n-1, n} are exactly the order-2 heavy translation groups (n >= 4).",
)
def _ex_large(seed: int):
    witnesses = {}
    for n in range(4, 9):
        hits = elements_with_distance_at_least(n, n - 1)
        identity_images = tuple(range(n))
        translations = []
        others = []
        for y, images, d in hits:
            (translations if images == identity_images else others).append((y, images, d))
        expected = {bits for w in (n - 1, n) for bits in _weight_vectors(n, w)}
        translations_ok = {y for y, _, _ in translations} == expected
        # every non-translation candidate has a proper power of smaller
        # displacement, so no subgroup containing it reaches d_K >= n-1
        others_die = True
        for y, images, _ in others:
            g = CubeAutomorphism(BitVector(n, y), Permutation(images))
            cyclic = generate_group([g], cap=64)
            if min_distance(cyclic) >= n - 1:
                others_die = False
        # two distinct heavy translations combine to a light one, so the
        # only groups at d_K >= n-1 are {0, x}
        pair_ok = all(
            (a ^ b).bit_count() < n - 1
            for a, b in itertools.combinations(sorted(expected), 2)
        )
        witnesses[f"n={n}"] = {
            "elements_at_threshold": len(hits),
            "heavy_translations": len(translations),
            "borderline_non_translations": len(others),
            "translations_match_expected": translations_ok,
            "non_translations_drop_in_cyclic_closure": others_die,
            "heavy_translation_pairs_collapse": pair_ok,
        }
        if not (translations_ok and others_die and pair_ok):
            return False, {"n": n}, witnesses
    return True, {"dimensions": [4, 5, 6, 7, 8]}, witnesses


@_claim("ex-k2", "Order-2 groups: d_K counts the fixed coordinates where the translation is 1.")
def _ex_k2(seed: int):
    checked = 0
    for n in range(4, 11):
        rng = _rng(seed, "k2", n)
        for _ in range(200):
            g = random_involution(n, rng)
            K = generate_group([g])
            formula = sum(1 for i in g.perm.fixed_points() if g.translation.bit(i))
            closed = min_distance(K)
            brute = brute_force_min_distance(K)
            checked += 1
            if not formula == closed == brute:
                witness = {"formula": formula, "closed_form": closed, "brute_force": brute}
                return False, {"group": describe_group(K)}, witness
    return (
        True,
        {"involutions_per_n": 200, "dimensions": list(range(4, 11))},
        {"checked": checked},
    )


def _not_vt_group(n: int) -> CubeGroup:
    sigma = Permutation.from_cycles(n, [(1, 2)])
    return generate_group([CubeAutomorphism(BitVector.all_ones(n), sigma)])


@_claim(
    "ex-not-vt",
    "Heavy involutions with a transposition part give non-vertex-transitive quotients.",
)
def _ex_not_vt(seed: int):
    n = 8
    K = _not_vt_group(n)
    d = min_distance(K)
    Q = build_quotient(K)
    aut = automorphism_group(Q.graph)
    orbits = aut.vertex_orbits()
    N = normalizer(K, "full")
    group_side = N.order // K.order
    # group-side witness: e_1^K is not in the normalizer orbit of 0^K; N
    # contains K, so its orbits on the cube are unions of K-orbits
    orbit = orbit_minima(image_tables([g.key() for g in N.generators]))
    e1_reached = bool(orbit[1] == orbit[0])
    ok = (
        d == n - 2
        and len(orbits) > 1
        and aut.order == group_side
        and not e1_reached
    )
    return (
        ok,
        {"group": describe_group(K)},
        {
            "d_K": d,
            "aut_order": aut.order,
            "normalizer_quotient_order": group_side,
            "vertex_orbit_sizes": [len(o) for o in orbits],
            "e1_in_normalizer_orbit_of_zero": e1_reached,
        },
    )


@_claim("ex-lt-not-vt", "A locally triangular half (n=10, d_K=8) that is not vertex-transitive.")
def _ex_lt_not_vt(seed: int):
    n = 10
    K = _not_vt_group(n)
    d = min_distance(K)
    Q = build_quotient(K)
    h0, _ = halved_graphs(Q.graph)
    aut = automorphism_group(h0)
    orbits = aut.vertex_orbits()
    group_side = normalizer(K, "even").order // K.order
    ok = (
        is_even(K)
        and d == 8
        and len(orbits) > 1
        and aut.order == group_side
    )
    return (
        ok,
        {"group": describe_group(K)},
        {
            "d_K": d,
            "half_vertices": h0.n,
            "aut_order": aut.order,
            "even_normalizer_quotient_order": group_side,
            "vertex_orbit_sizes": [len(o) for o in orbits],
        },
    )


@_claim(
    "ex-valency-m",
    "Even-weight translations on trailing coordinates give a quotient equal to a smaller cube.",
)
def _ex_valency_m(seed: int):
    witnesses = {}
    for m, n in ((2, 4), (3, 5), (3, 6)):
        gens = [
            CubeAutomorphism.translation_by(BitVector.from_support(n, (i, i + 1)))
            for i in range(m, n)
        ]
        K = generate_group(gens)
        d = min_distance(K)
        Q = build_quotient(K)
        # the restriction of the natural map to the low-coordinate subcube
        mapping = [Q.orbit_index[x] for x in range(1 << m)]
        qm = cube_graph(m)
        iso = len(set(mapping)) == Q.vertex_count and verify_isomorphism(
            qm, Q.graph, mapping
        )
        params_ok = has_cube_local_structure(Q, m, valency=m)
        witnesses[f"(m,n)=({m},{n})"] = {
            "group_order": K.order,
            "d_K": d,
            "restriction_is_isomorphism": iso,
            "valency_m_cube_params": params_ok,
        }
        if not (d == 2 and iso and params_ok and K.order == 1 << (n - m)):
            return False, {"m": m, "n": n}, witnesses
    return True, {"cases": 3}, witnesses


@_claim(
    "small-n-halved-cubes",
    "Halved n-cubes for n <= 4 are complete or complete-multipartite with known symmetry.",
)
def _small_n_halved(seed: int):
    expected_orders = {2: 2, 3: 24, 4: 384}
    witnesses = {}
    ok = True
    for n in (2, 3, 4):
        h0, h1 = halved_graphs(cube_graph(n))
        aut = automorphism_group(h0).order
        local = is_locally_triangular(h0, n)
        witnesses[f"halved Q_{n}"] = {
            "vertices": h0.n,
            "aut_order": aut,
            "expected": expected_orders[n],
            "locally_triangular": local,
        }
        ok = ok and aut == expected_orders[n] and h0.n == 1 << (n - 1) and local
    return ok, {"dimensions": [2, 3, 4]}, witnesses


# ---------------------------------------------------------------------------
# Named worked examples
# ---------------------------------------------------------------------------

# each worked example runs as the claim "ex-<name>"
_EXAMPLES = {cid[3:]: cid for cid in CLAIMS if cid.startswith("ex-")}


def run_example(name: str, seed: int = 0) -> ClaimReport:
    """Re-run one worked example by name and check all its stated values."""
    key = name.strip().lower()
    if key.startswith("ex-"):
        key = key[3:]
    if key not in _EXAMPLES:
        raise UnknownExample(
            f"unknown example {name!r}; known: {sorted(_EXAMPLES)}"
        )
    return run_claim(_EXAMPLES[key], seed=seed)
