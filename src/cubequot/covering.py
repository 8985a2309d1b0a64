"""Covering maps from the n-cube onto smaller graphs.

A map pi from Q_n onto a graph is a covering when it is surjective and
restricts to a bijection from the neighbors of every cube vertex onto the
neighbors of its image. `lift_covering` reverses direction: given a
connected triangle-free graph in which every 2-path closes into a unique
quadrangle (and whose deeper parameters cooperate), it reconstructs such a
projection vertex by vertex; `deck_group` then recovers the group of cube
automorphisms commuting with the projection.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .cube_symmetry import (
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    Permutation,
    _GroupBuilder,
)
from .errors import (
    DimensionTooLarge,
    InconsistentLift,
    NotCovering,
    NotRectagraph,
    QuadrangleAmbiguous,
    ReconstructionFailed,
)
from .graph_core import SimpleGraph, bits_of, is_rectagraph
from .quotient import MAX_QUOTIENT_DIMENSION


class CoveringMap:
    """A vertex map from Q_n onto a target graph, stored as an image array."""

    __slots__ = ("n", "target", "image")

    def __init__(self, n: int, target: SimpleGraph, image: Sequence[int]):
        if len(image) != 1 << n:
            raise ValueError(f"image array must have 2^{n} entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", tuple(image))

    def __setattr__(self, *_):
        raise AttributeError("CoveringMap is immutable")

    def to_json(self) -> str:
        """JSON array of 2^n target indices (index = vertex bits)."""
        return json.dumps(list(self.image)) + "\n"

    @classmethod
    def from_json(cls, n: int, target: SimpleGraph, text: str) -> "CoveringMap":
        return cls(n, target, json.loads(text))

    def __repr__(self) -> str:
        return f"CoveringMap(n={self.n}, target={self.target!r})"


def verify_covering(c: CoveringMap) -> bool:
    """Surjective and locally bijective at every cube vertex."""
    n = c.n
    image = c.image
    target = c.target
    if set(image) != set(range(target.n)):
        return False
    for v in range(1 << n):
        mask = 0
        count = 0
        for i in range(n):
            w = image[v ^ (1 << i)]
            mask |= 1 << w
            count += 1
        if count != mask.bit_count():  # repeated neighbor image
            return False
        if mask != target.adj[image[v]]:
            return False
    return True


def _quadrangle_fourth(target: SimpleGraph, end1: int, mid: int, end2: int) -> int:
    """The unique vertex completing the 2-path end1 - mid - end2 to a quadrangle."""
    common = target.adj[end1] & target.adj[end2] & ~(1 << mid)
    k = common.bit_count()
    if k != 1:
        raise QuadrangleAmbiguous(
            f"2-path ({end1}, {mid}, {end2}) has {k} completing vertices, expected 1"
        )
    return common.bit_length() - 1


def lift_covering(
    target: SimpleGraph,
    base: int = 0,
    neighbor_order: Optional[Sequence[int]] = None,
) -> CoveringMap:
    """Construct a covering Q_n -> target with pi(0) = base.

    The target must be a rectagraph, regular of some valency n; the i-th
    entry of neighbor_order (default: ascending) becomes the image of e_i.
    Images are assigned in weight order: for y with lowest set bits i < j,
    pi(y) is the fourth vertex of the unique quadrangle over the 2-path
    (pi(y - e_j), pi(y - e_i - e_j), pi(y - e_i)), and agreement of every
    other bit pair is checked explicitly, converting the existence argument
    into a verified construction. The result always passes verify_covering.
    Valency n > MAX_QUOTIENT_DIMENSION raises DimensionTooLarge up front.
    """
    n = target.degree(base)
    if n > MAX_QUOTIENT_DIMENSION:
        raise DimensionTooLarge(f"lifting allocates 2^n entries; n={n} > {MAX_QUOTIENT_DIMENSION}")
    if not is_rectagraph(target):
        raise NotRectagraph("target is not a connected rectagraph")
    if not target.is_regular():
        raise NotRectagraph("target is not regular")
    nbrs = target.neighbors(base)
    if neighbor_order is None:
        neighbor_order = nbrs
    neighbor_order = list(neighbor_order)
    if sorted(neighbor_order) != nbrs:
        raise ValueError("neighbor_order must list the neighbors of base exactly")

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
        image[y] = _quadrangle_fourth(target, end1, mid, end2)
        # every other bit pair must complete to the same vertex
        set_bits = list(bits_of(y))
        for a_idx, a in enumerate(set_bits):
            for b in set_bits[a_idx + 1 :]:
                if (a, b) == (i, j):
                    continue
                e1 = image[y ^ (1 << b)]
                e2 = image[y ^ (1 << a)]
                m = image[y ^ (1 << a) ^ (1 << b)]
                fourth = _quadrangle_fourth(target, e1, m, e2)
                if fourth != image[y]:
                    raise InconsistentLift(
                        f"bit pairs ({i},{j}) and ({a},{b}) disagree at vertex {y:#x}"
                    )
    cover = CoveringMap(n, target, image)
    if not verify_covering(cover):
        raise InconsistentLift("constructed map is not a covering")
    return cover


def deck_group(c: CoveringMap) -> CubeGroup:
    """The group of cube automorphisms g with image[v^g] = image[v] everywhere.

    Candidates are reconstructed from local data: for each y in the fiber
    over image[0] there is at most one (y, sigma) sending 0 to y, because
    sigma is forced by matching neighbor fibers. Every candidate must then
    verify globally; a candidate that cannot be reconstructed or fails the
    global check signals a covering without a regular deck action and
    raises ReconstructionFailed.
    """
    if not verify_covering(c):
        raise NotCovering("deck group is only defined for verified coverings")
    n = c.n
    image = c.image
    size = 1 << n
    fiber0 = [v for v in range(size) if image[v] == image[0]]
    members: list[CubeAutomorphism] = []
    for y in fiber0:
        images = [-1] * n
        for i in range(n):
            want = image[1 << i]
            hits = [k for k in range(n) if image[y ^ (1 << k)] == want]
            if len(hits) != 1:
                raise ReconstructionFailed(
                    f"neighbor fiber match at y={y:#x}, i={i + 1} is not unique"
                )
            images[i] = hits[0]
        if sorted(images) != list(range(n)):
            raise ReconstructionFailed(
                f"candidate at y={y:#x} does not induce a coordinate bijection"
            )
        g = CubeAutomorphism(BitVector(n, y), Permutation(images))
        for v in range(size):
            if image[g.act_bits(v)] != image[v]:
                raise ReconstructionFailed(
                    f"candidate at y={y:#x} moves vertex {v:#x} across fibers"
                )
        members.append(g)
    builder = _GroupBuilder(n, members)
    if builder.order() != len(members):
        raise ReconstructionFailed("reconstructed candidates do not close into a group")
    return CubeGroup(n, builder.gens, len(members))
