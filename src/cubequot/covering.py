"""Covering maps from the n-cube onto smaller graphs.

A map pi from Q_n onto a graph is a covering when it is surjective and
restricts to a bijection from the neighbors of every cube vertex onto the
neighbors of its image. `lift_covering` reverses direction: given a
connected triangle-free graph in which every 2-path closes into a unique
quadrangle (and whose deeper parameters cooperate), it reconstructs such a
projection vertex by vertex, one quadrangle per vertex, and checks the
result once; `deck_group` then recovers the group of cube automorphisms
commuting with the projection, as a group built by its Schreier walk.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cube_symmetry import BitVector, CubeAutomorphism, CubeGroup, Permutation, generate_group
from .errors import (
    DimensionTooLarge,
    InconsistentLift,
    NotCovering,
    NotRectagraph,
    QuadrangleAmbiguous,
    ReconstructionFailed,
)
from .graph_core import SimpleGraph, is_rectagraph, neighbor_table
from .quotient import MAX_QUOTIENT_DIMENSION, image_tables


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

    def __repr__(self) -> str:
        return f"CoveringMap(n={self.n}, target={self.target!r})"


def verify_covering(c: CoveringMap) -> bool:
    """Surjective and locally bijective at every cube vertex.

    The n neighbour images of every cube vertex are sorted at once and
    compared with the target's table rows at its image: a row lists
    distinct neighbours, so a repeated image fails the comparison.
    """
    import numpy as np

    n = c.n
    table = neighbor_table(c.target)
    if table.shape[1] != n or set(c.image) != set(range(c.target.n)):
        return False
    image = np.array(c.image, dtype=np.intp)
    near = np.empty((1 << n, n), dtype=np.int32)  # ids below V <= 2^n
    for i in range(n):
        near[:, i] = image[np.arange(1 << n) ^ (1 << i)]
    near.sort(axis=1)
    return all(np.array_equal(near[:, i], table[image, i]) for i in range(n))


def _quadrangle_fourth(rows: Sequence[set], end1: int, mid: int, end2: int) -> int:
    """The unique vertex completing the 2-path end1 - mid - end2 to a
    quadrangle; rows[v] is the set of neighbours of v."""
    common = rows[end1] & rows[end2]
    common.discard(mid)
    if len(common) != 1:
        raise QuadrangleAmbiguous(
            f"2-path ({end1}, {mid}, {end2}) has {len(common)} completing vertices, expected 1"
        )
    return common.pop()


def lift_covering(
    target: SimpleGraph,
    base: int = 0,
    neighbor_order: Optional[Sequence[int]] = None,
) -> CoveringMap:
    """Construct a covering Q_n -> target with pi(0) = base.

    The target must be a rectagraph, regular of some valency n; the i-th
    entry of neighbor_order (default: ascending) becomes the image of e_i.
    Images are assigned in increasing index order: for y with lowest set
    bits i < j, pi(y) is the fourth vertex of the unique quadrangle over the
    2-path (pi(y - e_j), pi(y - e_i - e_j), pi(y - e_i)), all three below y.
    The map is then checked once with verify_covering, which raises
    InconsistentLift on failure. A covering of a rectagraph makes every
    other bit pair agree as well: pi(y) is a common neighbor of
    pi(y - e_a) and pi(y - e_b) other than pi(y - e_a - e_b), and that
    common neighbor is unique. Valency n > MAX_QUOTIENT_DIMENSION raises
    DimensionTooLarge up front.
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

    rows = [set(row) for row in neighbor_table(target).tolist()]  # regular: no pad
    size = 1 << n
    image = [base] * size
    for i in range(n):
        image[1 << i] = neighbor_order[i]
    for y in range(size):
        if y & (y - 1) == 0:
            continue  # 0 and the e_i are set
        lsb = y & -y
        rest = y ^ lsb
        second = rest & -rest
        image[y] = _quadrangle_fourth(rows, image[y ^ second], image[rest ^ second], image[rest])
    cover = CoveringMap(n, target, image)
    if not verify_covering(cover):
        raise InconsistentLift("constructed map is not a covering")
    return cover


def deck_group(c: CoveringMap) -> CubeGroup:
    """The group of cube automorphisms g with image[v^g] = image[v] everywhere.

    Candidates are reconstructed from local data: for each y in the fiber
    over image[0] there is at most one (y, sigma) sending 0 to y, because
    sigma is forced by matching neighbor fibers; the covering makes the n
    neighbor images at y the same n distinct vertices as at 0. Every
    candidate must then keep each cube vertex in its fiber, read off its
    image table; one that does not signals a covering without a regular
    deck action and raises ReconstructionFailed. The group is built by its
    Schreier walk from the candidates, keeping each that is not in the group
    walked so far.
    """
    import numpy as np

    if not verify_covering(c):
        raise NotCovering("deck group is only defined for verified coverings")
    n = c.n
    image = c.image
    fibers = np.array(image, dtype=np.int64)
    members: list[CubeAutomorphism] = []
    for y in np.flatnonzero(fibers == image[0]).tolist():
        at_y = {image[y ^ (1 << k)]: k for k in range(n)}
        images = [at_y[image[1 << i]] for i in range(n)]
        moved = np.flatnonzero(fibers[image_tables([(y, images)])[0]] != fibers)
        if moved.size:
            raise ReconstructionFailed(
                f"candidate at y={y:#x} moves vertex {int(moved[0]):#x} across fibers"
            )
        members.append(CubeAutomorphism(BitVector(n, y), Permutation(images)))
    gens: list[CubeAutomorphism] = []
    group = CubeGroup.trivial(n)
    for g in members:
        if g not in group:
            gens.append(g)
            group = generate_group(gens)
    if group.order != len(members):
        raise ReconstructionFailed("reconstructed candidates do not close into a group")
    return group
