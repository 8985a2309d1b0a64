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

One element is encoded by its key (y, images): the translation bits and the
0-based coordinate images. The public constructors (`BitVector`,
`Permutation`, `CubeAutomorphism`, `Permutation.from_cycles`,
`parse_group_text`) validate their input. Elements the library derives from
valid ones -- products, inverses, conjugates, and every element of a
group's list -- are unchecked views over their keys
(`CubeAutomorphism._from_key`): the same immutable classes, with their slots
filled and no checks repeated.
Operations are pure functions.

A group's order, its translations T, membership and its minimum distance
come from its generators alone: a Schreier walk over its coordinate parts
gives pi(K), one representative per part and T (`_schreier_walk`), and d_K
is the least coset minimum weight over pi(K) (`min_distance`). The element
list, built only when a caller iterates the group, is the walk's cosets:
(x_sigma xor t, sigma) for each part sigma and each t in T.

One coset search finds the transporter {g : g^-1 K g = L}: `conjugating_element`
takes its first element, and `normalizer` is the transporter from K to itself.
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
    TooLarge,
    Unsupported,
)
from .perm_groups import PermutationGroup, invert_perm

INFINITY = math.inf

DEFAULT_GROUP_CAP = 2**20

MAX_DIMENSION = 32

# The coset search of `normalizer` (|K| > 2) and `conjugating_element` runs while 2^n n! <= this.
_COSET_SEARCH_CAP = 10**8

# The Schreier walk keeps at most this many coordinate parts, one key each:
# no more keys than the largest element list the default cap admits.
_WALK_CAP = DEFAULT_GROUP_CAP

# A coset minimum weight visits at most this many words, one at a time.
_COSET_WORD_CAP = 2**24


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise BadDimension(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


def _move_bits(bits: int, images: Sequence[int]) -> int:
    """Move bit j of bits to bit images[j], for every set bit j."""
    out = 0
    while bits:
        lsb = bits & -bits
        out |= 1 << images[lsb.bit_length() - 1]
        bits ^= lsb
    return out


def _cycle_data(images: Sequence[int]) -> tuple[int, list[int]]:
    """The mask of fixed points and the masks of the non-trivial cycles of a
    0-based permutation, the cycles listed by least point."""
    n = len(images)
    seen = [False] * n
    fixed_mask = 0
    cycle_masks = []
    for i in range(n):
        if seen[i]:
            continue
        if images[i] == i:
            seen[i] = True
            fixed_mask |= 1 << i
            continue
        mask = 0
        j = i
        while not seen[j]:
            seen[j] = True
            mask |= 1 << j
            j = images[j]
        cycle_masks.append(mask)
    return fixed_mask, cycle_masks


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

    def apply_bits(self, bits: int) -> int:
        """Move bit j to bit images[j] for every set bit."""
        return _move_bits(bits, self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """self followed by other."""
        if self.n != other.n:
            raise DimensionMismatch("composition of permutations of different degree")
        o = other.images
        return Permutation(tuple(o[j] for j in self.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation(invert_perm(self.images))

    def is_identity(self) -> bool:
        return all(j == k for j, k in enumerate(self.images))

    def fixed_points(self) -> tuple[int, ...]:
        """1-based fixed coordinates."""
        return tuple(j + 1 for j, k in enumerate(self.images) if j == k)

    def fixed_mask(self) -> int:
        return _cycle_data(self.images)[0]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Non-trivial cycles, 1-based, least point first, sorted by least point."""
        out = []
        for mask in _cycle_data(self.images)[1]:
            j = (mask & -mask).bit_length() - 1
            cyc = [j + 1]
            k = self.images[j]
            while k != j:
                cyc.append(k + 1)
                k = self.images[k]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_masks(self) -> tuple[int, ...]:
        """Bit masks of the non-trivial cycles, by least point."""
        return tuple(_cycle_data(self.images)[1])

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

    @classmethod
    def _from_key(cls, n: int, y: int, images: tuple[int, ...]) -> "CubeAutomorphism":
        """The element with key (y, images), derived from valid elements: its
        slots and those of its parts are filled without the checks of the
        public constructors. images must be a tuple."""
        translation = object.__new__(BitVector)
        object.__setattr__(translation, "n", n)
        object.__setattr__(translation, "bits", y)
        perm = object.__new__(Permutation)
        object.__setattr__(perm, "images", images)
        g = object.__new__(cls)
        object.__setattr__(g, "translation", translation)
        object.__setattr__(g, "perm", perm)
        return g

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
        o = other.perm.images
        return CubeAutomorphism._from_key(
            len(o),
            _move_bits(self.translation.bits, o) ^ other.translation.bits,
            tuple([o[j] for j in self.perm.images]),
        )

    __mul__ = compose

    def inverse(self) -> "CubeAutomorphism":
        inv = invert_perm(self.perm.images)
        return CubeAutomorphism._from_key(len(inv), _move_bits(self.translation.bits, inv), inv)

    def conjugated_by(self, g: "CubeAutomorphism") -> "CubeAutomorphism":
        """g^-1 * self * g."""
        return g.inverse().compose(self).compose(g)

    def is_identity(self) -> bool:
        return self.translation.bits == 0 and self.perm.is_identity()

    def is_even(self) -> bool:
        return self.translation.weight % 2 == 0

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.translation.bits, self.perm.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, CubeAutomorphism) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"({self.translation.to_string()}, {self.perm.cycle_string()})"


class CubeGroup:
    """A finite subgroup of Aut(Q_n): its generators and its order.

    Its coordinate parts and translations, and so membership, come from a
    Schreier walk over the generators (`_coset_walk`). `elements` lists the
    walk's cosets on first use: for each part sigma in walk order, identity
    first, the elements (x_sigma xor t, sigma), t in T, 0 first. A group whose
    order exceeds its cap raises GroupTooLarge there, before any list exists.
    """

    __slots__ = ("n", "generators", "order", "cap", "_element_list", "_walk")

    def __init__(
        self,
        n: int,
        generators: Sequence[CubeAutomorphism],
        order: int,
        cap: int = DEFAULT_GROUP_CAP,
        walk: Optional[tuple[dict[tuple[int, ...], int], dict[int, int]]] = None,
    ):
        _check_dimension(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_element_list", None)
        object.__setattr__(self, "_walk", walk)

    def __setattr__(self, *_):
        raise AttributeError("CubeGroup is immutable")

    @classmethod
    def trivial(cls, n: int) -> "CubeGroup":
        return cls(n, (), 1)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def elements(self) -> tuple[CubeAutomorphism, ...]:
        if self._element_list is None:
            if self.order > self.cap:
                raise GroupTooLarge(f"element list of order {self.order} exceeds cap {self.cap}")
            reps, t_pivots = self._coset_walk()
            translations = _span(t_pivots)
            view = CubeAutomorphism._from_key
            listed = tuple(
                [view(self.n, x ^ t, images) for images, x in reps.items() for t in translations]
            )
            object.__setattr__(self, "_element_list", listed)
        return self._element_list

    def _coset_walk(self) -> tuple[dict[tuple[int, ...], int], dict[int, int]]:
        """(reps, t_pivots) of `_schreier_walk`, walked on first use. Raises
        InvariantViolated when the walk's |pi(K)| 2^dim T is not the order.

        An order up to _WALK_CAP caps the walk, so generators of a larger
        group stop as soon as they pass it; a larger order keeps the uncapped
        walk and its bound on the parts, which raises GroupTooLarge.
        """
        if self._walk is None:
            capped = self.order <= _WALK_CAP
            try:
                walk = _schreier_walk(self.n, self.generators, self.order if capped else INFINITY)
            except GroupTooLarge:
                if not capped:
                    raise
                raise InvariantViolated(f"generators walk past the order {self.order}") from None
            order = len(walk[0]) << len(walk[1])
            if order != self.order:
                raise InvariantViolated(f"generators walk to order {order}, the order is {self.order}")
            object.__setattr__(self, "_walk", walk)
        return self._walk

    def __contains__(self, g: CubeAutomorphism) -> bool:
        """(y, sigma) is in K iff sigma is in pi(K) and y xor x_sigma is in T."""
        reps, t_pivots = self._coset_walk()
        x = reps.get(g.perm.images)
        return x is not None and _reduce(x ^ g.translation.bits, t_pivots) == 0

    def __iter__(self) -> Iterator[CubeAutomorphism]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def non_identity(self) -> Iterator[CubeAutomorphism]:
        return (g for g in self if not g.is_identity())

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
    """The group generated by gens, with the order of their Schreier walk.

    Raises GroupTooLarge as soon as the walk finds an order above cap, before
    any element list exists; the list is built when the group is iterated.
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
    walk = _schreier_walk(dim, gens, cap)
    return CubeGroup(dim, gens, len(walk[0]) << len(walk[1]), cap, walk=walk)


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
    fixed_mask, cycle_masks = _cycle_data(g.perm.images)
    d = (y & fixed_mask).bit_count()
    for mask in cycle_masks:
        d += (y & mask).bit_count() & 1
    return d


def _least_weight(word: int, basis: Sequence[int]) -> int:
    """min over c in the span of basis of the weight of word xor c, for a
    word outside that span, so that no word of the coset is 0.

    The coset is walked in Gray-code order, one word at a time, and the walk
    stops at weight 1. TooLarge when it holds more than _COSET_WORD_CAP
    words, before the walk starts.
    """
    if 1 << len(basis) > _COSET_WORD_CAP:
        raise TooLarge(f"coset of 2^{len(basis)} words exceeds {_COSET_WORD_CAP}")
    best = word.bit_count()
    for i in range(1, 1 << len(basis)):
        if best == 1:
            break
        word ^= basis[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
    return best


def _fold(v: int, fixed_mask: int, cycles: Sequence[tuple[int, int]]) -> int:
    """M(v): v on the fixed coordinates, and its parity on each (bit, cycle mask) at that bit."""
    w = v & fixed_mask
    for bit, mask in cycles:
        w |= ((v & mask).bit_count() & 1) << bit
    return w


def min_distance(K: CubeGroup) -> float | int:
    """Minimum distance of K; INFINITY for the trivial group.

    Taken as coset minima over K's Schreier walk, with no element list. The
    elements over a coordinate part sigma are (x_sigma xor t, sigma),
    t in T. By the closed form of `element_min_distance`, each one's distance
    is the weight of M(x_sigma xor t), where M keeps the coordinates sigma
    fixes and takes the parity on each of its cycles (at bits n, n+1, ...).
    M is linear, so the least distance over sigma is a coset minimum weight
    in the code M(T). M(x_sigma) reduced by an echelon basis of M(T) is 0
    exactly when its coset holds 0. Over the identity it is the least weight
    of a non-zero t, and each such t is b_p plus a combination of the basis
    vectors below its leading bit p.
    """
    if K.is_trivial:
        return INFINITY
    reps, t_pivots = K._coset_walk()
    t_basis = [t_pivots[p] for p in sorted(t_pivots)]
    best = INFINITY
    for images, x in reps.items():
        fixed_mask, cycle_masks = _cycle_data(images)
        if not cycle_masks:
            continue  # the identity part, searched last
        cycles = list(enumerate(cycle_masks, start=K.n))
        code: dict[int, int] = {}
        for t in t_basis:
            _add_to_span(_fold(t, fixed_mask, cycles), code)
        word = _reduce(_fold(x, fixed_mask, cycles), code)
        if word == 0:
            return 0  # nothing is smaller; the other cosets need not be searched
        best = min(best, _least_weight(word, list(code.values())))
    for i, t in enumerate(t_basis):
        if best == 1:
            break
        best = min(best, _least_weight(t, t_basis[:i]))
    return best


def is_even(K: CubeGroup) -> bool:
    """True iff every translation part has even weight (K <= E_n : S_n)."""
    return all(g.is_even() for g in K.generators)


def is_semiregular(K: CubeGroup) -> bool:
    """True iff no non-identity element fixes a vertex, i.e. d_K >= 1."""
    return min_distance(K) >= 1


def conjugate_group(K: CubeGroup, g: CubeAutomorphism) -> CubeGroup:
    """The conjugate g^-1 K g, generated by the conjugates of K's generators."""
    if K.n != g.n:
        raise DimensionMismatch("group and conjugating element dimensions differ")
    return CubeGroup(K.n, [k.conjugated_by(g) for k in K.generators], K.order, K.cap)


def intersect_even(K: CubeGroup) -> CubeGroup:
    """The subgroup of even elements, K intersected with E_n : S_n."""
    gens, order = _even_part(K.n, K.generators, K.order)
    return K if order == K.order else CubeGroup(K.n, gens, order, K.cap)


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


class _GroupBuilder:
    """Accumulates group elements, keeping only growing generators.

    `add` keeps g when it is not yet a member of the group generated so far
    (a Schreier-Sims membership test through `_monomial_perm`), so adding a
    group's elements in order picks the same greedy generating set as
    re-closing the group after every new generator, without the closures.
    """

    def __init__(self, n: int, elements: Iterable[CubeAutomorphism] = ()):
        self.n = n
        self.group = PermutationGroup(2 * n)
        self.gens: list[CubeAutomorphism] = []
        for g in elements:
            self.add(g)

    def add(self, g: CubeAutomorphism) -> None:
        if self.group.add_generator(_monomial_perm(g)):
            self.gens.append(g)

    def order(self) -> int:
        return self.group.order()


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


def _schreier_walk(
    n: int, gens: Sequence[CubeAutomorphism], cap: float = INFINITY
) -> tuple[dict[tuple[int, ...], int], dict[int, int]]:
    """The coordinate parts pi(K) of K = <gens>, and T, from the generators alone.

    Walks pi(K) breadth-first from the identity, applying the generators in
    input order, and keeps one representative r_sigma = (x_sigma, sigma) per
    part: the first product r_sigma' g that reaches it. T, the translations in
    K, is the kernel of pi: K -> S_n. By Schreier's lemma the elements
    r_sigma g r_tau^-1, tau the part of r_sigma g, generate it (Seress,
    Permutation Group Algorithms, 2003, 4.1); each is the translation
    (z xor x_tau)^(tau^-1), z the translation of r_sigma g, and goes into an
    echelon basis. So |K| = |pi(K)| 2^dim T.

    Returns reps (images of sigma -> x_sigma, identity first) and the pivots
    of T. Raises GroupTooLarge as soon as the order found so far exceeds cap;
    with no cap, as soon as the walk holds more than _WALK_CAP parts.
    """
    ident = tuple(range(n))
    steps = [(g.translation.bits, g.perm.images, g.perm.images == ident) for g in gens]
    reps = {ident: 0}
    queue = [ident]
    pivots: dict[int, int] = {}
    for sigma in queue:
        x = reps[sigma]
        for g_y, g_images, g_is_translation in steps:
            if g_is_translation:
                tau, z = sigma, x ^ g_y
            else:
                tau, z = tuple([g_images[j] for j in sigma]), _move_bits(x, g_images) ^ g_y
            x_tau = reps.get(tau)
            if x_tau is None:
                reps[tau] = z
                queue.append(tau)
                if cap == INFINITY and len(reps) > _WALK_CAP:
                    raise GroupTooLarge(f"coordinate parts exceed {_WALK_CAP}")
            elif z == x_tau or len(pivots) == n:
                continue
            elif not _add_to_span(_move_bits(z ^ x_tau, invert_perm(tau)), pivots):
                continue
            if len(reps) << len(pivots) > cap:
                raise GroupTooLarge(f"group order exceeds cap {cap}")
    return reps, pivots


def _translation_pivots(K: CubeGroup) -> dict[int, int]:
    """An echelon basis of T, the subspace of translations in K, in a dict of
    the caller's own: callers extend it."""
    return dict(K._coset_walk()[1])


def _span(pivots: dict[int, int]) -> list[int]:
    """Every vector of the span of pivots."""
    words = [0]
    for v in pivots.values():
        words += [w ^ v for w in words]
    return words


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
    """The translations y for which (y, tau) conjugates K's generators into L.

    Conjugating a generator (x, s) of K by (y, tau) gives
    (y^s' xor y xor x^tau, s') with s' = tau^-1 s tau. The elements of L over
    s' form a coset x_s' + T, T the translations in L, so the conjugate lies
    in L iff s' is a coordinate part of L and (s' + 1) y = x^tau xor x_s'
    modulo T. For a fixed tau this is one affine system over F_2; its
    solutions, when there are any, form a coset of Y_0(L).
    """

    def __init__(self, K: CubeGroup, L: CubeGroup):
        self.n = K.n
        # one x_s' per part of L; lift reduces every target modulo T, so any
        # representative of the coset gives the same y
        self.fibres, self.t_pivots = L._coset_walk()
        self.gens = [g.key() for g in K.generators]
        # echelon rows per tuple of conjugated coordinate parts (s'_j)
        self._systems: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {}

    def lift(self, tau: Permutation) -> Optional[int]:
        """Some y with (y, tau) conjugating K's generators into L, or None."""
        n = self.n
        t = tau.images
        tinv = invert_perm(t)
        perms = []
        target = 0
        for j, (x, s) in enumerate(self.gens):
            sp = tuple([t[s[k]] for k in tinv])
            x_sp = self.fibres.get(sp)
            if x_sp is None:
                return None
            perms.append(sp)
            target |= _reduce(_move_bits(x, t) ^ x_sp, self.t_pivots) << (j * n)
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


def _admissible_coordinate_parts(K: CubeGroup, L: CubeGroup) -> Iterator[Permutation]:
    """Every tau that passes the y-free tests of conjugating K's generators
    into L, in lexicographic order of the images, one at a time.

    For a generator (x, s) of K, tau^-1 s tau must lie in pi(L), the set of
    coordinate parts of L; when s = id the conjugate is (x^tau, id), so x^tau
    must also lie in T, the translations in L. tau is built one coordinate at
    a time. For each generator the search keeps the p in pi(L) that agree
    with p(tau(j)) = tau(s(j)) (that is, p = tau^-1 s tau) on the
    coordinates assigned so far, or the t in T with t_tau(j) = x_j, and backs
    up as soon as some generator has none left. While s(j) is unassigned,
    p(tau(j)) must still be a free image.
    """
    n = K.n
    reps, t_pivots = L._coset_walk()
    parts = list(reps)
    perm_gens = list(dict.fromkeys(g.perm.images for g in K.generators if not g.perm.is_identity()))
    translations = _span(t_pivots)
    trans_gens = [g.translation.bits for g in K.generators if g.perm.is_identity()]
    # checks[g][i]: the j whose constraint is tested once tau(i) is assigned:
    # j = i, and the earlier j with s(j) = i
    checks = [
        [[j for j in range(n) if j == i or j < i == s[j]] for i in range(n)] for s in perm_gens
    ]
    tau = [0] * n
    used = [False] * n

    def search(i: int, perm_cands: list[list[tuple[int, ...]]], trans_cands: list[list[int]]):
        if i == n:
            yield Permutation(tau)
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
                    yield from search(i + 1, narrowed_p, narrowed_t)
            used[v] = False

    return search(0, [parts] * len(perm_gens), [translations] * len(trans_gens))


def _even_part(
    n: int, gens: Sequence[CubeAutomorphism], order: int
) -> tuple[tuple[CubeAutomorphism, ...], int]:
    """Generators and order of the even elements of <gens>, a group of the given order.

    Translation parity is a homomorphism onto Z_2, so the even elements form
    a subgroup of index at most 2: all of <gens> when every generator is even,
    else index 2 with coset representatives 1 and an odd generator t. Its
    Schreier generators are s and t s t^-1 for even s, and s t^-1 and t s for
    odd s (Seress, Permutation Group Algorithms, 2003, 4.1). Checks
    2 |even part| = order and raises InvariantViolated otherwise.
    """
    t = next((g for g in gens if not g.is_even()), None)
    if t is None:
        return tuple(gens), order
    t_inv = t.inverse()
    # the s and s t^-1 go in first: in that order the even normalizers of
    # perfbench's symmetry groups (n = 8, 10) built about 30% faster
    firsts = [s if s.is_even() else s.compose(t_inv) for s in gens]
    seconds = [t.compose(s).compose(t_inv) if s.is_even() else t.compose(s) for s in gens]
    builder = _GroupBuilder(n, firsts + seconds)
    if 2 * builder.order() != order:
        raise InvariantViolated(f"even part has order {builder.order()}, the group {order}")
    return tuple(builder.gens), builder.order()


def normalizer(K: CubeGroup, ambient: str = "full", cap: int = DEFAULT_GROUP_CAP) -> CubeGroup:
    """N = {g in ambient : g^-1 K g = K} as a CubeGroup, built from generators.

    N is the transporter from K to itself (see `conjugating_element`).
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
    kernel of translation parity on N, one index-2 step from N's generators
    (`_even_part`). Each route checks the order of the Schreier-Sims chain
    against its count and raises InvariantViolated on a mismatch. The result
    is generators and order; `cap` bounds its element list, which is built
    on first use.
    """
    if ambient not in ("full", "even"):
        raise ValueError(f"ambient must be 'full' or 'even', got {ambient!r}")
    even = ambient == "even"
    n = K.n
    if K.is_trivial:
        return CubeGroup(n, standard_generators(n, even), ambient_order(n, even), cap)
    if K.order == 2:
        k0 = next(g for g in K.generators if not g.is_identity())
        taus, expected = _involution_coordinate_generators(n, k0.translation.bits, k0.perm)
    elif (1 << n) * math.factorial(n) <= _COSET_SEARCH_CAP:
        taus, expected = _admissible_coordinate_parts(K, K), None
    else:
        raise Unsupported(
            f"normalizer for |K|={K.order} at n={n}: the coordinate search covers |K| > 2 "
            f"only while 2^n n! <= {_COSET_SEARCH_CAP}"
        )
    builder = _GroupBuilder(n)
    solver = _LiftSolver(K, K)
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
    gens, order = tuple(builder.gens), builder.order()
    if order != expected:
        raise InvariantViolated(f"normalizer order {order}, the count gives {expected}")
    if even:
        gens, order = _even_part(n, gens, order)
    return CubeGroup(n, gens, order, cap)


def conjugating_element(K: CubeGroup, L: CubeGroup) -> Optional[CubeAutomorphism]:
    """Some g with g^-1 K g = L, or None when K and L are not conjugate.

    The coset search of `normalizer` with L on the right gives (y_tau, tau)
    for the first tau with a lift. Conjugation is injective, so for |K| = |L|
    mapping K's generators into L is enough. Unsupported when 2^n n! > 10^8.
    """
    n = K.n
    if L.n != n:
        raise DimensionMismatch(f"groups of dimension {n} and {L.n}")
    if K.order != L.order:
        return None
    if K.is_trivial:
        return CubeAutomorphism.identity(n)
    if (1 << n) * math.factorial(n) > _COSET_SEARCH_CAP:
        raise Unsupported(f"conjugacy at n={n}: coset search needs 2^n n! <= {_COSET_SEARCH_CAP}")
    solver = _LiftSolver(K, L)
    for tau in _admissible_coordinate_parts(K, L):
        y = solver.lift(tau)
        if y is not None:
            return CubeAutomorphism(BitVector(n, y), tau)
    return None


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
    "x=<n bits, coordinate 1 leftmost> perm=<cycles or id>". The group is
    its generators and the order of their Schreier walk; GroupTooLarge when
    that order exceeds cap, before any element list exists.
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
    return generate_group(gens, cap, n=n)


def parse_group_file(path, cap: int = DEFAULT_GROUP_CAP) -> CubeGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), cap=cap)


def format_group_text(K: CubeGroup) -> str:
    lines = [f"n={K.n}"]
    for g in K.generators:
        lines.append(f"x={g.translation.to_string()} perm={g.perm.cycle_string()}")
    return "\n".join(lines) + "\n"
