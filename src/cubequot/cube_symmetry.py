"""Exact arithmetic in the automorphism group of the n-cube.

Aut(Q_n) is the semidirect product F_2^n : S_n. An element is written
(y, sigma): sigma permutes coordinates, y translates. Vertices of Q_n are
n-bit integers; coordinate i (1-based) lives at bit position i-1.

Conventions, fixed once and validated by the test suite:

* action (on the right):  v^(y,sigma) = v^sigma xor y, where v^sigma moves
  bit i-1 to bit (i^sigma)-1, i.e. e_i |-> e_{i^sigma};
* composition:  (y,sigma)(z,tau) = (y^tau xor z, sigma tau), so that
  v^(gh) = (v^g)^h.

The minimum distance of a subgroup K is the least Hamming distance between
a vertex and its image under a non-identity element of K (infinity for the
trivial group). It generalises the minimum distance of a binary linear
code, which is the special case K <= F_2^n.

All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BadDimension,
    DimensionMismatch,
    GroupTooLarge,
    IdentityElement,
    InvariantViolated,
    ParseError,
    Unsupported,
)
from .perm_groups import PermutationGroup

INFINITY = math.inf

DEFAULT_GROUP_CAP = 2**20

MAX_DIMENSION = 32

# The coordinate search of `normalizer` (|K| > 2) runs while 2^n n! <= this.
_COSET_SEARCH_CAP = 10**8


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise BadDimension(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


class BitVector:
    """An element of F_2^n; a hypercube vertex or a translation part."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        _check_dimension(n)
        if bits < 0 or bits >> n:
            raise BadDimension(f"bits 0x{bits:x} has set positions >= n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("BitVector is immutable")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def all_ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_support(cls, n: int, coords: Iterable[int]) -> "BitVector":
        """Vector e_{i1,...,im} from 1-based coordinates."""
        bits = 0
        for i in coords:
            if not 1 <= i <= n:
                raise BadDimension(f"coordinate {i} out of range 1..{n}")
            bits |= 1 << (i - 1)
        return cls(n, bits)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse a bit string with coordinate 1 leftmost, e.g. '11110000'."""
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a bit string: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, i: int) -> int:
        """Coordinate i (1-based)."""
        return (self.bits >> (i - 1)) & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.bit(i))

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionMismatch("xor of vectors of different dimension")
        return BitVector(self.n, self.bits ^ other.bits)

    def __int__(self) -> int:
        return self.bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVector({self.n}, 0b{format(self.bits, f'0{self.n}b')})"


class Permutation:
    """A permutation of coordinates [n] = {1,...,n}.

    Stored 0-based: images[j] is the 0-based image of coordinate j+1.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        _check_dimension(len(images))
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *_):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from 1-based cycles, e.g. [(1, 5), (2, 6)]."""
        images = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            for i in cyc:
                if not 1 <= i <= n:
                    raise ValueError(f"cycle point {i} out of range 1..{n}")
                if i in seen:
                    raise ValueError(f"cycle point {i} repeated")
                seen.add(i)
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                images[a - 1] = b - 1
        return cls(images)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        return cls.from_cycles(n, [(i, j)])

    def image_of(self, i: int) -> int:
        """Image of 1-based coordinate i, 1-based."""
        return self.images[i - 1] + 1

    def apply_bits(self, bits: int) -> int:
        """Move bit j to bit images[j] for every set bit."""
        out = 0
        images = self.images
        while bits:
            lsb = bits & -bits
            out |= 1 << images[lsb.bit_length() - 1]
            bits ^= lsb
        return out

    def compose(self, other: "Permutation") -> "Permutation":
        """self followed by other."""
        if self.n != other.n:
            raise DimensionMismatch("composition of permutations of different degree")
        o = other.images
        return Permutation(tuple(o[j] for j in self.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, k in enumerate(self.images):
            inv[k] = j
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(j == k for j, k in enumerate(self.images))

    def fixed_points(self) -> tuple[int, ...]:
        """1-based fixed coordinates."""
        return tuple(j + 1 for j, k in enumerate(self.images) if j == k)

    def fixed_mask(self) -> int:
        return sum(1 << j for j, k in enumerate(self.images) if j == k)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Non-trivial cycles, 1-based, least point first, sorted by least point."""
        out = []
        seen = [False] * self.n
        for j in range(self.n):
            if seen[j] or self.images[j] == j:
                continue
            cyc = []
            k = j
            while not seen[k]:
                seen[k] = True
                cyc.append(k + 1)
                k = self.images[k]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_masks(self) -> tuple[int, ...]:
        """Bit masks of the non-trivial cycles."""
        masks = []
        for cyc in self.cycles():
            m = 0
            for i in cyc:
                m |= 1 << (i - 1)
            masks.append(m)
        return tuple(masks)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


class CubeAutomorphism:
    """One element (y, sigma) of Aut(Q_n)."""

    __slots__ = ("translation", "perm")

    def __init__(self, translation: BitVector, perm: Permutation):
        if translation.n != perm.n:
            raise DimensionMismatch("translation and permutation dimensions differ")
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, *_):
        raise AttributeError("CubeAutomorphism is immutable")

    @property
    def n(self) -> int:
        return self.perm.n

    @classmethod
    def identity(cls, n: int) -> "CubeAutomorphism":
        return cls(BitVector.zero(n), Permutation.identity(n))

    @classmethod
    def translation_by(cls, v: BitVector) -> "CubeAutomorphism":
        return cls(v, Permutation.identity(v.n))

    def act_bits(self, bits: int) -> int:
        return self.perm.apply_bits(bits) ^ self.translation.bits

    def act(self, v: BitVector) -> BitVector:
        if v.n != self.n:
            raise DimensionMismatch("vertex and automorphism dimensions differ")
        return BitVector(self.n, self.act_bits(v.bits))

    def compose(self, other: "CubeAutomorphism") -> "CubeAutomorphism":
        """self followed by other: (y,s)(z,t) = (y^t xor z, st)."""
        if self.n != other.n:
            raise DimensionMismatch("composition of automorphisms of different dimension")
        y_t = other.perm.apply_bits(self.translation.bits)
        return CubeAutomorphism(
            BitVector(self.n, y_t ^ other.translation.bits),
            self.perm.compose(other.perm),
        )

    __mul__ = compose

    def inverse(self) -> "CubeAutomorphism":
        pinv = self.perm.inverse()
        return CubeAutomorphism(
            BitVector(self.n, pinv.apply_bits(self.translation.bits)), pinv
        )

    def conjugated_by(self, g: "CubeAutomorphism") -> "CubeAutomorphism":
        """g^-1 * self * g."""
        return g.inverse().compose(self).compose(g)

    def is_identity(self) -> bool:
        return self.translation.bits == 0 and self.perm.is_identity()

    def is_translation(self) -> bool:
        return self.perm.is_identity()

    def is_even(self) -> bool:
        return self.translation.weight % 2 == 0

    def order(self) -> int:
        k = 1
        cur = self
        while not cur.is_identity():
            cur = cur.compose(self)
            k += 1
        return k

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.translation.bits, self.perm.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, CubeAutomorphism) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"({self.translation.to_string()}, {self.perm.cycle_string()})"


class CubeGroup:
    """A finite subgroup of Aut(Q_n).

    Groups built by `generate_group` carry their full element list in
    breadth-first order from the identity. Groups returned by `normalizer`
    may carry elements=None when the order exceeds the cap; the exact order
    is always present.
    """

    __slots__ = ("n", "generators", "elements", "order", "_element_keys")

    def __init__(
        self,
        n: int,
        generators: Sequence[CubeAutomorphism],
        elements: Optional[Sequence[CubeAutomorphism]],
        order: int,
    ):
        _check_dimension(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(
            self, "elements", tuple(elements) if elements is not None else None
        )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_element_keys", None)

    def __setattr__(self, *_):
        raise AttributeError("CubeGroup is immutable")

    @classmethod
    def trivial(cls, n: int) -> "CubeGroup":
        return cls(n, (), (CubeAutomorphism.identity(n),), 1)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def _keys(self) -> frozenset:
        keys = object.__getattribute__(self, "_element_keys")
        if keys is None:
            if self.elements is None:
                raise Unsupported("element list not materialized for this group")
            keys = frozenset(g.key() for g in self.elements)
            object.__setattr__(self, "_element_keys", keys)
        return keys

    def __contains__(self, g: CubeAutomorphism) -> bool:
        return g.key() in self._keys()

    def __iter__(self) -> Iterator[CubeAutomorphism]:
        if self.elements is None:
            raise Unsupported("element list not materialized for this group")
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def non_identity(self) -> Iterator[CubeAutomorphism]:
        return (g for g in self if not g.is_identity())

    def same_group_as(self, other: "CubeGroup") -> bool:
        return self.n == other.n and self._keys() == other._keys()

    def __repr__(self) -> str:
        return f"CubeGroup(n={self.n}, order={self.order}, gens={len(self.generators)})"


# ---------------------------------------------------------------------------
# Group construction and the minimum distance parameter
# ---------------------------------------------------------------------------


def generate_group(
    gens: Sequence[CubeAutomorphism],
    cap: int = DEFAULT_GROUP_CAP,
    n: Optional[int] = None,
) -> CubeGroup:
    """Closure of gens under composition, breadth-first from the identity.

    Generators are applied in input order, so the element order is
    deterministic. Raises GroupTooLarge when the closure exceeds cap.
    """
    gens = tuple(gens)
    if not gens:
        if n is None:
            raise ValueError("empty generator list needs an explicit dimension n")
        return CubeGroup.trivial(n)
    dim = gens[0].n
    if n is not None and n != dim:
        raise DimensionMismatch(f"generators have n={dim}, expected n={n}")
    for g in gens:
        if g.n != dim:
            raise DimensionMismatch("generators of mixed dimension")
    ident = CubeAutomorphism.identity(dim)
    elements = [ident]
    seen = {ident.key()}
    qi = 0
    while qi < len(elements):
        cur = elements[qi]
        qi += 1
        for g in gens:
            nxt = cur.compose(g)
            k = nxt.key()
            if k not in seen:
                if len(elements) >= cap:
                    raise GroupTooLarge(f"closure exceeds cap {cap}")
                seen.add(k)
                elements.append(nxt)
    return CubeGroup(dim, gens, elements, len(elements))


def act(g: CubeAutomorphism, v: BitVector) -> BitVector:
    """Image of vertex v under g; a right action."""
    return g.act(v)


def element_min_distance(g: CubeAutomorphism) -> int:
    """min over all vertices v of the Hamming distance from v to v^g.

    Computed from the cycle decomposition of the coordinate permutation:
    a fixed coordinate i contributes y_i, and each cycle of length >= 2
    contributes the parity of y restricted to the cycle (choosing v along
    the cycle cancels everything but that parity). The test suite
    cross-validates this closed form against enumeration of all 2^n
    vertices.
    """
    if g.is_identity():
        raise IdentityElement("element distance is undefined for the identity")
    y = g.translation.bits
    d = (y & g.perm.fixed_mask()).bit_count()
    for mask in g.perm.cycle_masks():
        d += (y & mask).bit_count() & 1
    return d


def min_distance(K: CubeGroup) -> float | int:
    """Minimum distance of K; INFINITY for the trivial group."""
    if K.is_trivial:
        return INFINITY
    best = INFINITY
    for g in K.non_identity():
        d = element_min_distance(g)
        if d < best:
            if d == 0:
                return 0  # nothing is smaller; the rest of K need not be scanned
            best = d
    return best


def is_even(K: CubeGroup) -> bool:
    """True iff every translation part has even weight (K <= E_n : S_n)."""
    return all(g.is_even() for g in K.generators)


def is_semiregular(K: CubeGroup) -> bool:
    """True iff no non-identity element fixes a vertex, i.e. d_K >= 1."""
    return min_distance(K) >= 1


def conjugate_group(K: CubeGroup, g: CubeAutomorphism) -> CubeGroup:
    """The conjugate g^-1 K g."""
    if K.n != g.n:
        raise DimensionMismatch("group and conjugating element dimensions differ")
    conj_gens = tuple(k.conjugated_by(g) for k in K.generators)
    if K.elements is None:
        return CubeGroup(K.n, conj_gens, None, K.order)
    if K.is_trivial:
        return CubeGroup.trivial(K.n)
    result = generate_group(conj_gens, cap=K.order + 1)
    if result.order != K.order:
        raise InvariantViolated(f"conjugate has order {result.order}, K has {K.order}")
    return result


def _reduce_generators(
    n: int, elements: Sequence[CubeAutomorphism]
) -> tuple[CubeAutomorphism, ...]:
    """Greedy small generating set for a group given as an element list."""
    gens: list[CubeAutomorphism] = []
    known = {CubeAutomorphism.identity(n).key()}
    for e in elements:
        if e.key() in known:
            continue
        gens.append(e)
        known = {g.key() for g in generate_group(gens, cap=len(elements) + 1)}
    return tuple(gens)


def intersect_even(K: CubeGroup) -> CubeGroup:
    """The subgroup of even elements, K intersected with E_n : S_n."""
    if K.elements is None:
        raise Unsupported("intersect_even needs a materialized element list")
    even_elems = [g for g in K if g.is_even()]
    if len(even_elems) == 1:
        return CubeGroup.trivial(K.n)
    if len(even_elems) == K.order:
        return K
    gens = _reduce_generators(K.n, even_elems)
    result = generate_group(gens, cap=K.order + 1)
    if result.order != len(even_elems):
        raise InvariantViolated(
            f"even part generates order {result.order}, expected {len(even_elems)}"
        )
    return result


# ---------------------------------------------------------------------------
# Normalizer computation
# ---------------------------------------------------------------------------


def _monomial_perm(g: CubeAutomorphism) -> tuple[int, ...]:
    """Faithful embedding of Aut(Q_n) into S_2n (signed coordinates).

    Point 2j is the positive copy of coordinate j+1, point 2j+1 the
    negative one; (y, sigma) sends 2j to 2*sigma(j) + y_{sigma(j)}.
    """
    n = g.n
    img = [0] * (2 * n)
    y = g.translation.bits
    for j in range(n):
        k = g.perm.images[j]
        flip = (y >> k) & 1
        img[2 * j] = 2 * k + flip
        img[2 * j + 1] = 2 * k + 1 - flip
    return tuple(img)


def standard_generators(n: int, even: bool = False) -> tuple[CubeAutomorphism, ...]:
    """Generators of Aut(Q_n), or of its even-translation subgroup."""
    gens: list[CubeAutomorphism] = []
    if even:
        for i in range(1, n):
            gens.append(
                CubeAutomorphism.translation_by(BitVector.from_support(n, (i, i + 1)))
            )
    else:
        for i in range(1, n + 1):
            gens.append(CubeAutomorphism.translation_by(BitVector.from_support(n, (i,))))
    ident_v = BitVector.zero(n)
    if n >= 2:
        gens.append(CubeAutomorphism(ident_v, Permutation.transposition(n, 1, 2)))
        if n >= 3:
            gens.append(
                CubeAutomorphism(ident_v, Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
            )
    return tuple(gens)


def ambient_order(n: int, even: bool = False) -> int:
    order = (1 << n) * math.factorial(n)
    return order // 2 if even else order


class _NormalizerBuilder:
    """Accumulates normalizer elements, keeping only growing generators."""

    def __init__(self, n: int):
        self.n = n
        self.group = PermutationGroup(2 * n)
        self.gens: list[CubeAutomorphism] = []

    def add(self, g: CubeAutomorphism) -> None:
        if self.group.add_generator(_monomial_perm(g)):
            self.gens.append(g)

    def order(self) -> int:
        return self.group.order()


def _normalizer_trivial(n: int, even: bool, cap: int) -> CubeGroup:
    gens = standard_generators(n, even=even)
    if not gens:
        return CubeGroup.trivial(n)
    order = ambient_order(n, even=even)
    elements = None
    if order <= cap:
        elements = generate_group(gens, cap=order + 1).elements
    return CubeGroup(n, gens, elements, order)


# Translations over F_2. A vector is an int; a subspace is held as an echelon
# basis, a dict from leading bit to vector.


def _reduce(v: int, pivots: dict[int, int]) -> int:
    """v modulo the span of pivots (leading bit -> vector), pivot bits cleared."""
    for p in sorted(pivots, reverse=True):
        if (v >> p) & 1:
            v ^= pivots[p]
    return v


def _add_to_span(v: int, pivots: dict[int, int]) -> bool:
    """Extend pivots by v; False when v already lies in their span."""
    v = _reduce(v, pivots)
    if v:
        pivots[v.bit_length() - 1] = v
    return bool(v)


def _translation_pivots(K: CubeGroup) -> dict[int, int]:
    """An echelon basis of T, the subspace of translations in K."""
    if K.elements is None:
        raise Unsupported("the translation subgroup needs the group element list")
    pivots: dict[int, int] = {}
    for g in K.elements:
        if g.perm.is_identity():
            _add_to_span(g.translation.bits, pivots)
    return pivots


def _translation_system(
    n: int, perms: Sequence[Sequence[int]], t_pivots: dict[int, int]
) -> dict[int, int]:
    """Echelon rows of the F_2-linear map f(y) = (y^s xor y mod T for s in perms).

    Row i is (f(e_i), e_i), packed as f(e_i) << n | e_i with the block of
    perms[j] at bits j*n..j*n+n-1 of f(e_i). Rows whose leading bit is below n
    have a vanished f-part and span the kernel of f; reducing c << n by all
    rows leaves y with f(y) = c in its low n bits, or a non-zero high part
    when c is not in the image of f.
    """
    pivots: dict[int, int] = {}
    for i in range(n):
        image = 0
        for j, images in enumerate(perms):
            image |= _reduce((1 << images[i]) ^ (1 << i), t_pivots) << (j * n)
        _add_to_span(image << n | 1 << i, pivots)
    return pivots


def normalizing_translations(K: CubeGroup) -> list[int]:
    """A basis of Y_0 = {y : y^s xor y in T for every generator (x, s) of K}.

    T is the subspace of translations in K. Conjugating (x, s) by (y, id)
    gives (x xor y^s xor y, s), and (x xor z, s) lies in K iff z lies in T,
    so Y_0 is the subspace of translations that normalize K. The condition
    is linear in y; one Gaussian elimination over F_2 in the n unknowns
    y_1..y_n solves it, with no loop over the 2^n translations.
    """
    n = K.n
    perms = [g.perm.images for g in K.generators if not g.perm.is_identity()]
    pivots = _translation_system(n, perms, _translation_pivots(K))
    return [v for p, v in pivots.items() if p < n]


class _LiftSolver:
    """The translations y for which (y, tau) normalizes K, for a given tau.

    Conjugating a generator (x, s) of K by (y, tau) gives
    (y^s' xor y xor x^tau, s') with s' = tau^-1 s tau. The elements of K over
    s' form a coset x_s' + T, so the conjugate lies in K iff s' is a
    coordinate part of K and (s' + 1) y = x^tau xor x_s' modulo T. For a
    fixed tau this is one affine system over F_2; its solutions, when there
    are any, form a coset y_tau + Y_0.
    """

    def __init__(self, K: CubeGroup):
        self.n = K.n
        self.t_pivots = _translation_pivots(K)
        self.fibres: dict[tuple[int, ...], int] = {}
        for g in K:
            self.fibres.setdefault(g.perm.images, g.translation.bits)
        self.gens = [(g.translation.bits, g.perm.images) for g in K.generators]
        # echelon rows per tuple of conjugated coordinate parts (s'_j)
        self._systems: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {}

    def lift(self, tau: Permutation) -> Optional[int]:
        """Some y with (y, tau) in N(K), or None when there is none."""
        n = self.n
        t = tau.images
        tinv = tau.inverse().images
        perms = []
        target = 0
        for j, (x, s) in enumerate(self.gens):
            sp = tuple([t[s[k]] for k in tinv])
            x_sp = self.fibres.get(sp)
            if x_sp is None:
                return None
            perms.append(sp)
            target |= _reduce(tau.apply_bits(x) ^ x_sp, self.t_pivots) << (j * n)
        key = tuple(perms)
        system = self._systems.get(key)
        if system is None:
            system = self._systems[key] = _translation_system(n, perms, self.t_pivots)
        y = _reduce(target << n, system)
        return None if y >> n else y


def _involution_coordinate_generators(
    n: int, x: int, sigma: Permutation
) -> tuple[list[Permutation], int]:
    """Generators of P, the coordinate parts of N = N({1, (x, sigma)}), and |N|.

    P is Sym(fixed coordinates with x=1) x Sym(fixed coordinates with x=0)
    x (S_2 wr S_m) on the m 2-cycles of sigma: tau must commute with sigma,
    and x^tau xor x must lie in the image of sigma + 1, which vanishes on
    fixed coordinates (x is constant on each 2-cycle already). Generators:
    adjacent transpositions inside each fixed block, one swap inside the
    first 2-cycle, and swaps of consecutive 2-cycles. Y_0 is Fix(sigma)
    when sigma is not the identity, and all of F_2^n when it is; either way
    |Y_0| = 2^(a+b+m), with a and b the numbers of fixed coordinates with
    x=0 and x=1.
    """
    s = sigma.images
    ones = [j for j in range(n) if s[j] == j and (x >> j) & 1]
    zeros = [j for j in range(n) if s[j] == j and not (x >> j) & 1]
    cycles = [(j, s[j]) for j in range(n) if j < s[j]]
    swaps = [[(a, b)] for block in (ones, zeros) for a, b in zip(block, block[1:])]
    swaps += [[cycles[0]]] if cycles else []
    swaps += [[(a, c), (b, d)] for (a, b), (c, d) in zip(cycles, cycles[1:])]
    taus = []
    for pairs in swaps:
        images = list(range(n))
        for a, b in pairs:
            images[a], images[b] = b, a
        taus.append(Permutation(images))
    a, b, m = len(zeros), len(ones), len(cycles)
    order = (1 << (a + b + 2 * m)) * math.factorial(a) * math.factorial(b) * math.factorial(m)
    return taus, order


def _admissible_coordinate_parts(K: CubeGroup) -> list[Permutation]:
    """Every tau that passes the y-free tests of conjugating K's generators.

    For a generator (x, s), tau^-1 s tau must lie in pi(K), the set of
    coordinate parts of K; when s = id the conjugate is (x^tau, id), so x^tau
    must also lie in T, the translations in K. tau is built one coordinate at
    a time. For each generator the search keeps the p in pi(K) that agree
    with p(tau(j)) = tau(s(j)) (that is, p = tau^-1 s tau) on the
    coordinates assigned so far, or the t in T with t_tau(j) = x_j, and backs
    up as soon as some generator has none left. While s(j) is unassigned,
    p(tau(j)) must still be a free image.
    """
    n = K.n
    parts = list(dict.fromkeys(g.perm.images for g in K))
    perm_gens = list(dict.fromkeys(g.perm.images for g in K.generators if not g.perm.is_identity()))
    translations = [g.translation.bits for g in K if g.perm.is_identity()]
    trans_gens = [g.translation.bits for g in K.generators if g.perm.is_identity()]
    # checks[g][i]: the j whose constraint is tested once tau(i) is assigned:
    # j = i, and the earlier j with s(j) = i
    checks = [
        [[j for j in range(n) if j == i or j < i == s[j]] for i in range(n)] for s in perm_gens
    ]
    tau = [0] * n
    used = [False] * n
    found: list[Permutation] = []

    def search(i: int, perm_cands: list[list[tuple[int, ...]]], trans_cands: list[list[int]]):
        if i == n:
            found.append(Permutation(tau))
            return
        for v in range(n):
            if used[v]:
                continue
            tau[i] = v
            used[v] = True
            narrowed_p = []
            for s, check, ps in zip(perm_gens, checks, perm_cands):
                keep = [
                    p
                    for p in ps
                    if all(
                        p[tau[j]] == tau[s[j]] if s[j] <= i else not used[p[tau[j]]]
                        for j in check[i]
                    )
                ]
                if not keep:
                    break
                narrowed_p.append(keep)
            else:
                narrowed_t = []
                for x, ts in zip(trans_gens, trans_cands):
                    keep = [t for t in ts if (t >> v) & 1 == (x >> i) & 1]
                    if not keep:
                        break
                    narrowed_t.append(keep)
                else:
                    search(i + 1, narrowed_p, narrowed_t)
            used[v] = False

    search(0, [parts] * len(perm_gens), [translations] * len(trans_gens))
    return found


def _even_subgroup(
    n: int, gens: Sequence[CubeAutomorphism], t: CubeAutomorphism
) -> _NormalizerBuilder:
    """The even elements of <gens>, for an odd element t of <gens>.

    Translation parity is a homomorphism onto Z_2, so the even elements form
    a subgroup of index 2 with coset representatives 1 and t. Its Schreier
    generators are s and t s t^-1 for even s, and s t^-1 and t s for odd s.
    """
    builder = _NormalizerBuilder(n)
    t_inv = t.inverse()
    # the s and s t^-1 go in first: in that order the even normalizers of
    # perfbench's symmetry groups (n = 8, 10) built about 30% faster
    firsts = [s if s.is_even() else s.compose(t_inv) for s in gens]
    seconds = [t.compose(s).compose(t_inv) if s.is_even() else t.compose(s) for s in gens]
    for g in firsts + seconds:
        builder.add(g)
    return builder


def normalizer(K: CubeGroup, ambient: str = "full", cap: int = DEFAULT_GROUP_CAP) -> CubeGroup:
    """N = {g in ambient : g^-1 K g = K} as a CubeGroup, built from generators.

    The normalizing translations Y_0 are the kernel of the coordinate-part
    map N -> S_n, so N is generated by a basis of Y_0 and one lift (y, tau)
    of each generator tau of its image P, and |N| = |Y_0| |P|. Two routes
    find P:

    * |K| = 2, K = {1, (x, sigma)}: P has a closed form (see
      `_involution_coordinate_generators`), with O(n) generators, for any n.
    * |K| > 2 while 2^n n! <= 10^8: a backtrack over tau, pruned by the
      coordinate parts and the translations of K
      (`_admissible_coordinate_parts`), with one lift per tau that admits
      one; Unsupported beyond that bound.

    The trivial group has the ambient group's standard generators. Lifts
    solve one F_2 system per tau (`_LiftSolver`). The even ambient is the
    kernel of translation parity on N, one index-2 step from N's generators.
    Each route checks the order of the Schreier-Sims chain against its count
    and raises InvariantViolated on a mismatch. The element list is
    materialized only when the order fits the cap.
    """
    if ambient not in ("full", "even"):
        raise ValueError(f"ambient must be 'full' or 'even', got {ambient!r}")
    even = ambient == "even"
    n = K.n
    if K.is_trivial:
        return _normalizer_trivial(n, even, cap)
    if K.order == 2:
        k0 = next(g for g in K if not g.is_identity())
        taus, expected = _involution_coordinate_generators(n, k0.translation.bits, k0.perm)
    elif (1 << n) * math.factorial(n) <= _COSET_SEARCH_CAP:
        taus, expected = _admissible_coordinate_parts(K), None
    else:
        raise Unsupported(
            f"normalizer for |K|={K.order} at n={n}: the coordinate search covers |K| > 2 "
            f"only while 2^n n! <= {_COSET_SEARCH_CAP}"
        )
    builder = _NormalizerBuilder(n)
    solver = _LiftSolver(K)
    lifts = 0
    for tau in taus:
        y = solver.lift(tau)
        if y is None:
            if expected is not None:
                raise InvariantViolated(f"coordinate part {tau} of the normalizer has no lift")
            continue
        lifts += 1
        builder.add(CubeAutomorphism(BitVector(n, y), tau))
    y0_basis = normalizing_translations(K)
    for y in y0_basis:
        builder.add(CubeAutomorphism.translation_by(BitVector(n, y)))
    if expected is None:
        expected = (1 << len(y0_basis)) * lifts
    order = builder.order()
    if order != expected:
        raise InvariantViolated(f"normalizer order {order}, the count gives {expected}")
    odd = next((g for g in builder.gens if not g.is_even()), None)
    if even and odd is not None:
        builder = _even_subgroup(n, builder.gens, odd)
        if 2 * builder.order() != order:
            raise InvariantViolated(f"even normalizer order {builder.order()}, full order {order}")
        order = builder.order()
    gens = tuple(builder.gens)
    elements = None
    if order <= cap:
        group = generate_group(gens, cap=order + 1, n=n) if gens else CubeGroup.trivial(n)
        if group.order != order:
            raise InvariantViolated(f"normalizer closure has order {group.order}, expected {order}")
        elements = group.elements
    return CubeGroup(n, gens, elements, order)


# ---------------------------------------------------------------------------
# Group file format
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s+\d+)*)\s*\)")


def _parse_cycles(n: int, text: str, line_no: int) -> Permutation:
    if text == "id":
        return Permutation.identity(n)
    pos = 0
    cycles = []
    for match in _CYCLE_RE.finditer(text):
        if match.start() != pos:
            raise ParseError(line_no, f"malformed cycle notation {text!r}")
        cycles.append(tuple(int(t) for t in match.group(1).split()))
        pos = match.end()
    if pos != len(text) or not cycles:
        raise ParseError(line_no, f"malformed cycle notation {text!r}")
    try:
        return Permutation.from_cycles(n, cycles)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from exc


def parse_group_text(text: str, cap: int = DEFAULT_GROUP_CAP) -> CubeGroup:
    """Parse the group file format.

    Line 1 is "n=<int>"; each later non-empty line is one generator,
    "x=<n bits, coordinate 1 leftmost> perm=<cycles or id>".
    """
    lines = text.splitlines()
    n = None
    gens: list[CubeAutomorphism] = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if n is None:
            m = re.fullmatch(r"n\s*=\s*(\d+)", line)
            if not m:
                raise ParseError(idx, f"expected 'n=<int>' header, got {line!r}")
            n = int(m.group(1))
            if not 1 <= n <= MAX_DIMENSION:
                raise ParseError(idx, f"dimension {n} out of range 1..{MAX_DIMENSION}")
            continue
        m = re.fullmatch(r"x\s*=\s*([01]+)\s+perm\s*=\s*(\S.*)", line)
        if not m:
            raise ParseError(idx, f"expected 'x=<bits> perm=<cycles|id>', got {line!r}")
        bits_str, perm_str = m.group(1), m.group(2).strip()
        if len(bits_str) != n:
            raise ParseError(
                idx, f"bit string has length {len(bits_str)}, expected n={n}"
            )
        vec = BitVector.from_string(bits_str)
        perm = _parse_cycles(n, perm_str, idx)
        gens.append(CubeAutomorphism(vec, perm))
    if n is None:
        raise ParseError(1, "empty file: missing 'n=<int>' header")
    return generate_group(gens, cap=cap, n=n)


def parse_group_file(path, cap: int = DEFAULT_GROUP_CAP) -> CubeGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), cap=cap)


def format_group_text(K: CubeGroup) -> str:
    lines = [f"n={K.n}"]
    for g in K.generators:
        lines.append(f"x={g.translation.to_string()} perm={g.perm.cycle_string()}")
    return "\n".join(lines) + "\n"
