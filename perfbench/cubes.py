"""Independent arithmetic in Aut(Q_n) for making inputs and checking outputs.

Nothing here imports cubequot: the benchmark generates its group files and
computes its reference values (orders, d_K, orbit counts) with this module,
so set-up time does not depend on the library's algorithms and the checks
do not trust them.

An element is a pair (x, images): the coordinate permutation sends bit i to
bit images[i], then x is xored in. This matches the group-file format and
the library's conventions: v^(x,s) = v^s xor x, and (x,s)(z,t) = (x^t xor z, st).
"""

from __future__ import annotations

import math
import random

Element = tuple[int, tuple[int, ...]]


def identity(n: int) -> Element:
    return (0, tuple(range(n)))


def permute_bits(bits: int, images: tuple[int, ...]) -> int:
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= 1 << images[i]
        bits >>= 1
        i += 1
    return out


def compose(g: Element, h: Element) -> Element:
    """g followed by h."""
    return (permute_bits(g[0], h[1]) ^ h[0], tuple(h[1][i] for i in g[1]))


def inverse(g: Element) -> Element:
    inv = [0] * len(g[1])
    for i, j in enumerate(g[1]):
        inv[j] = i
    inv_t = tuple(inv)
    return (permute_bits(g[0], inv_t), inv_t)


def closure(gens: list[Element], n: int, cap: int) -> list[Element] | None:
    """All elements generated by gens, or None once more than cap appear."""
    elements = [identity(n)]
    seen = {elements[0]}
    qi = 0
    while qi < len(elements):
        cur = elements[qi]
        qi += 1
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                if len(elements) >= cap:
                    return None
                seen.add(nxt)
                elements.append(nxt)
    return elements


def cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All cycles of the permutation, fixed points included, 0-based."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = images[j]
        out.append(tuple(cyc))
    return out


def element_distance(g: Element) -> int:
    """min over v of wt(v xor v^g): a fixed coordinate contributes x_i, a
    longer cycle the parity of x on it."""
    x, images = g
    d = 0
    for cyc in cycles(images):
        mask = sum(1 << i for i in cyc)
        d += (x & mask).bit_count() if len(cyc) == 1 else (x & mask).bit_count() & 1
    return d


def min_distance(elements: list[Element]) -> float:
    nontrivial = [g for g in elements if g != identity(len(g[1]))]
    return min((element_distance(g) for g in nontrivial), default=math.inf)


def orbit_count(elements: list[Element], n: int) -> int:
    """Number of K-orbits on the 2^n vertices, by Burnside's lemma.

    g fixes a vertex only when its element distance is 0, and then fixes
    2^(number of coordinate cycles) of them.
    """
    fixed = sum(
        1 << len(cycles(g[1])) for g in elements if element_distance(g) == 0
    )
    return fixed // len(elements)


def is_even(elements: list[Element]) -> bool:
    return all(x.bit_count() % 2 == 0 for x, _ in elements)


def normalizes(g: Element, gens: list[Element], members: set[Element]) -> bool:
    g_inv = inverse(g)
    return all(compose(compose(g_inv, k), g) in members for k in gens)


# ---------------------------------------------------------------------------
# Random elements and groups
# ---------------------------------------------------------------------------


def random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def random_involution_perm(n: int, rng: random.Random, min_swaps: int = 0) -> tuple[int, ...]:
    coords = list(range(n))
    rng.shuffle(coords)
    images = list(range(n))
    for k in range(rng.randint(min_swaps, n // 2)):
        a, b = coords[2 * k], coords[2 * k + 1]
        images[a], images[b] = b, a
    return tuple(images)


def random_involution(n: int, rng: random.Random) -> Element:
    """(x, s) with s an involution and x constant on the 2-cycles of s."""
    images = random_involution_perm(n, rng)
    x = 0
    for cyc in cycles(images):
        if rng.randrange(2):
            x |= sum(1 << i for i in cyc)
    return (x, images)


def matched_involution(n: int, pairs: list[tuple[int, int]], rng: random.Random) -> Element:
    """An involution swapping a random subset of the given disjoint pairs,
    with x constant on the swapped pairs. Involutions drawn from one set of
    pairs have commuting permutations, so a few of them generate a small
    2-group."""
    images = list(range(n))
    for a, b in pairs:
        if rng.randrange(2):
            images[a], images[b] = b, a
    x = 0
    for cyc in cycles(tuple(images)):
        if rng.randrange(2):
            x |= sum(1 << i for i in cyc)
    return (x, tuple(images))


def random_element(n: int, rng: random.Random) -> Element:
    """(x, s) with s an involution and x arbitrary: order 2 or 4."""
    return (rng.randrange(1 << n), random_involution_perm(n, rng, min_swaps=1))


def translation_group(n: int, order: int, rng: random.Random) -> list[Element]:
    """Generators of a random translation subgroup of the given 2-power order."""
    dim = order.bit_length() - 1
    while True:
        gens = [(rng.randrange(1, 1 << n), tuple(range(n))) for _ in range(dim)]
        elements = closure(gens, n, order)
        if elements is not None and len(elements) == order:
            return gens


def semiregular_group(
    n: int, order: int, rng: random.Random, make, max_gens: int = 3
) -> list[Element]:
    """Generators, drawn with make(n, rng, count), of a semiregular group of
    the given order that is not a translation group."""
    while True:
        gens = make(n, rng, rng.randint(1, max_gens))
        if all(s == tuple(range(n)) for _, s in gens):
            continue
        elements = closure(gens, n, order)
        if elements is not None and len(elements) == order and min_distance(elements) >= 1:
            return gens


# ---------------------------------------------------------------------------
# Group file text
# ---------------------------------------------------------------------------


def bit_string(x: int, n: int) -> str:
    return "".join(str((x >> i) & 1) for i in range(n))


def cycle_string(images: tuple[int, ...]) -> str:
    long = [c for c in cycles(images) if len(c) > 1]
    if not long:
        return "id"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in long)


def group_text(n: int, gens: list[Element]) -> str:
    lines = [f"n={n}"]
    lines += [f"x={bit_string(x, n)} perm={cycle_string(s)}" for x, s in gens]
    return "\n".join(lines) + "\n"


def full_group_generators(n: int) -> list[Element]:
    """Unit translations, the transposition (1 2) and the n-cycle: all of Aut(Q_n)."""
    ident = tuple(range(n))
    gens = [(1 << i, ident) for i in range(n)]
    swap = list(ident)
    swap[0], swap[1] = 1, 0
    gens.append((0, tuple(swap)))
    gens.append((0, tuple((i + 1) % n for i in range(n))))
    return gens
