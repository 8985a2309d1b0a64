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

import itertools
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

# Largest centralizer the involution normalizer tier will enumerate.
_CENTRALIZER_ENUM_CAP = 4_000_000

# Brute-force normalizer tier bound on |Aut(Q_n)| = 2^n n!.
_BRUTE_NORMALIZER_CAP = 10**8


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

    def permuted(self, perm: "Permutation") -> "BitVector":
        if perm.n != self.n:
            raise DimensionMismatch("vector and permutation dimensions differ")
        return BitVector(self.n, perm.apply_bits(self.bits))

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

    def is_translation_group(self) -> bool:
        return all(g.is_translation() for g in self.generators)

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
    return min(element_min_distance(g) for g in K.non_identity())


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


def _normalizer_involution(K: CubeGroup, even: bool, cap: int) -> CubeGroup:
    """Normalizer of K = {1, (x, sigma)}: the centralizer of the involution.

    (y, tau) normalizes K iff tau commutes with sigma and
    y^sigma xor y = x^tau xor x. Solutions in y, when they exist, form a
    coset of Fix(sigma) = {y : y^sigma = y}, so the centralizer of sigma is
    enumerated (it is Sym(fix) x (S_2 wr S_m) for an involution) and each
    tau contributes either nothing or a full coset.
    """
    n = K.n
    k0 = next(g for g in K if not g.is_identity())
    x = k0.translation.bits
    sigma = k0.perm
    builder = _NormalizerBuilder(n)

    fixed0 = [j for j in range(n) if sigma.images[j] == j]
    cycles0 = [tuple(i - 1 for i in c) for c in sigma.cycles()]
    m = len(cycles0)

    # Kernel part: (y, id) with y fixed by sigma, restricted to even weight
    # when asked for the even ambient group.
    kernel_basis = [1 << j for j in fixed0] + [
        (1 << a) | (1 << b) for a, b in cycles0
    ]
    if even:
        ker_even = [bm for bm in kernel_basis if bm.bit_count() % 2 == 0]
        odd = [bm for bm in kernel_basis if bm.bit_count() % 2 == 1]
        ker_even += [odd[i] ^ odd[i + 1] for i in range(len(odd) - 1)]
        kernel_basis = ker_even
    for bm in kernel_basis:
        builder.add(CubeAutomorphism.translation_by(BitVector(n, bm)))

    if sigma.is_identity():
        # Translation subgroup: tau must stabilize x; generators of the
        # stabilizer are adjacent transpositions within support and within
        # the complement.
        supp = [j + 1 for j in range(n) if (x >> j) & 1]
        rest = [j + 1 for j in range(n) if not (x >> j) & 1]
        for block in (supp, rest):
            for a, b in zip(block, block[1:]):
                builder.add(
                    CubeAutomorphism(BitVector.zero(n), Permutation.transposition(n, a, b))
                )
        expected = (1 << (n - 1 if even else n)) * math.factorial(
            len(supp)
        ) * math.factorial(len(rest))
    else:
        csize = (
            math.factorial(len(fixed0)) * math.factorial(m) * (1 << m)
        )
        if csize > _CENTRALIZER_ENUM_CAP:
            raise Unsupported(
                f"centralizer of the coordinate permutation too large to enumerate ({csize})"
            )
        count = 0
        for fperm in itertools.permutations(fixed0):
            fmap = dict(zip(fixed0, fperm))
            for cperm in itertools.permutations(range(m)):
                for flips in range(1 << m):
                    images = [0] * n
                    for j, fj in fmap.items():
                        images[j] = fj
                    for ci, (a, b) in enumerate(cycles0):
                        ta, tb = cycles0[cperm[ci]]
                        if (flips >> ci) & 1:
                            ta, tb = tb, ta
                        images[a], images[b] = ta, tb
                    tau = Permutation(images)
                    z = tau.apply_bits(x) ^ x
                    # Solvability of y^sigma xor y = z: z must vanish on the
                    # fixed coordinates and be constant on every 2-cycle.
                    if z & sigma.fixed_mask():
                        continue
                    ok = True
                    y0 = 0
                    for a, b in cycles0:
                        za, zb = (z >> a) & 1, (z >> b) & 1
                        if za != zb:
                            ok = False
                            break
                        if za:
                            y0 |= 1 << a
                    if not ok:
                        continue
                    if even and y0.bit_count() % 2 == 1:
                        if fixed0:
                            y0 |= 1 << fixed0[0]
                        else:
                            continue  # no even solution for this tau
                    count += 1
                    builder.add(CubeAutomorphism(BitVector(n, y0), tau))
        expected = count * (1 << len(kernel_basis))

    order = builder.order()
    if expected is not None and order != expected:
        raise InvariantViolated(f"normalizer order {order}, centralizer count gives {expected}")
    gens = tuple(builder.gens)
    elements = None
    if order <= cap:
        group = generate_group(gens, cap=order + 1, n=n) if gens else CubeGroup.trivial(n)
        if group.order != order:
            raise InvariantViolated(f"normalizer closure has order {group.order}, expected {order}")
        elements = group.elements
    return CubeGroup(n, gens, elements, order)


def _normalizer_brute(K: CubeGroup, even: bool, cap: int) -> CubeGroup:
    """Scan of the full ambient group, factored through coordinate parts.

    For fixed tau the conjugate of (x, s) by (y, tau) is
    (y^{t^-1 s t} xor x^tau xor y, t^-1 s t), so tau is rejected outright
    unless every conjugated coordinate permutation occurs in K, and the
    remaining conditions are checked per translation y (skipping the y loop
    entirely when all conditions are y-free).
    """
    n = K.n
    builder = _NormalizerBuilder(n)
    perm_fibers: dict[tuple[int, ...], set[int]] = {}
    for g in K:
        perm_fibers.setdefault(g.perm.images, set()).add(g.translation.bits)
    ks = [g for g in K if not g.is_identity()]
    y_range = range(1 << n)
    for tau_images in itertools.permutations(range(n)):
        tau = Permutation(tau_images)
        tinv = tau.inverse()
        conds = []
        ok = True
        for k in ks:
            sp = tinv.compose(k.perm).compose(tau)
            fiber = perm_fibers.get(sp.images)
            if fiber is None:
                ok = False
                break
            xt = tau.apply_bits(k.translation.bits)
            conds.append((sp, xt, fiber))
        if not ok:
            continue
        y_free = all(sp.is_identity() for sp, _, _ in conds)
        if y_free:
            # Every (even) y works for this tau, or none does.
            if all(xt in fiber for _, xt, fiber in conds):
                builder.add(CubeAutomorphism(BitVector.zero(n), tau))
                if tau.is_identity():
                    for t in standard_generators(n, even=even):
                        if t.is_translation():
                            builder.add(t)
            continue
        for y in y_range:
            if even and y.bit_count() % 2 == 1:
                continue
            good = True
            for sp, xt, fiber in conds:
                if sp.apply_bits(y) ^ y ^ xt not in fiber:
                    good = False
                    break
            if good:
                builder.add(CubeAutomorphism(BitVector(n, y), tau))
    order = builder.order()
    gens = tuple(builder.gens)
    elements = None
    if order <= cap:
        group = generate_group(gens, cap=order + 1, n=n) if gens else CubeGroup.trivial(n)
        if group.order != order:
            raise InvariantViolated(f"normalizer closure has order {group.order}, expected {order}")
        elements = group.elements
    return CubeGroup(n, gens, elements, order)


def normalizer(K: CubeGroup, ambient: str = "full", cap: int = DEFAULT_GROUP_CAP) -> CubeGroup:
    """N = {g in ambient : g^-1 K g = K} as a CubeGroup.

    Two tiers: a factored scan of the whole ambient group while
    2^n n! <= 10^8, and a constraint tier for |K| <= 2 built from the
    centralizer of the involution. Anything else raises Unsupported.
    The element list is materialized only when the order fits the cap.
    """
    if ambient not in ("full", "even"):
        raise ValueError(f"ambient must be 'full' or 'even', got {ambient!r}")
    even = ambient == "even"
    if K.is_trivial:
        return _normalizer_trivial(K.n, even, cap)
    if K.order == 2:
        return _normalizer_involution(K, even, cap)
    if (1 << K.n) * math.factorial(K.n) <= _BRUTE_NORMALIZER_CAP:
        return _normalizer_brute(K, even, cap)
    raise Unsupported(
        f"normalizer for |K|={K.order} at n={K.n} exceeds both computation tiers"
    )


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
