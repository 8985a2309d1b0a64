"""Orbit partitions of the n-cube under a subgroup and the quotient graph.

Vertices of Q_n are the integers 0..2^n-1. The representative of an orbit
is its numerically smallest vertex, found for every vertex at once as the
minimum over the elements g of K of the image tables v -> g(v); orbit ids
are sorted by representative, and vertex labels of the quotient graph are
the representative bit strings (coordinate 1 leftmost). Distinct orbits are
adjacent whenever some member of one is cube-adjacent to a member of the
other; loops are discarded. K acts by cube automorphisms, so the
neighbours of g(r) lie in the orbits of the neighbours of r, and the
adjacency is read off the n cube neighbours of each representative alone.
Semiregularity is not required, so degenerate quotients can be built and
inspected.

A translation (y, id) that normalizes K maps orbits to orbits, so it acts
on the quotient as a graph automorphism. `translation_roots` picks one
vertex per orbit of these automorphisms; distance parameters need a BFS
from those roots only.
"""

from __future__ import annotations

from typing import Sequence

from .cube_symmetry import BitVector, CubeGroup
from .errors import DimensionMismatch, DimensionTooLarge, Unsupported
from .graph_core import LocalParams, SimpleGraph, bits_of, local_params

MAX_QUOTIENT_DIMENSION = 20

# Image-table entries build_quotient holds at once (512 KiB): several
# elements per numpy call on small cubes, a bounded buffer on large ones.
_TABLE_ENTRIES = 1 << 16


class QuotientGraph:
    """The quotient of Q_n by the orbit partition of a subgroup."""

    __slots__ = ("n", "group", "reps", "orbit_index", "graph")

    def __init__(
        self,
        n: int,
        group: CubeGroup,
        reps: Sequence[int],
        orbit_index: Sequence[int],
        graph: SimpleGraph,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "reps", tuple(reps))
        object.__setattr__(self, "orbit_index", tuple(orbit_index))
        object.__setattr__(self, "graph", graph)

    def __setattr__(self, *_):
        raise AttributeError("QuotientGraph is immutable")

    @property
    def vertex_count(self) -> int:
        return len(self.reps)

    def orbit_of_zero(self) -> int:
        return self.orbit_index[0]

    def __repr__(self) -> str:
        return f"QuotientGraph(n={self.n}, |K|={self.group.order}, vertices={len(self.reps)})"


def image_tables(elements: Sequence[tuple[int, Sequence[int]]]):
    """Numpy array whose row k is the table v -> g_k(v), for 0 <= v < 2^n.

    Element g_k is given as its pair (translation bits y, images): g_k(v) is
    y xor v with bit j moved to bit images[j].
    """
    # numpy is imported on first use: importing it here at module level, ahead
    # of verify, raised the peak memory of `import cubequot` by about 4 MB.
    import numpy as np

    moved = np.left_shift(1, np.array([images for _, images in elements], dtype=np.int64))
    n = moved.shape[1]
    table = np.empty((len(elements), 1 << n), dtype=np.int64)
    table[:, 0] = [y for y, _ in elements]
    for j in range(n):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] ^ moved[:, j, None]
    return table


def build_quotient(K: CubeGroup) -> QuotientGraph:
    """Quotient graph of Q_n by K, deterministic orbit ids."""
    import numpy as np

    n = K.n
    if n > MAX_QUOTIENT_DIMENSION:
        raise DimensionTooLarge(
            f"quotient construction enumerates 2^n vertices; n={n} exceeds {MAX_QUOTIENT_DIMENSION}"
        )
    if K.elements is None:
        raise Unsupported("quotient construction needs the group element list")
    elements = [(g.translation.bits, g.perm.images) for g in K.elements]
    step = max(1, _TABLE_ENTRIES >> n)
    vertices = np.arange(1 << n, dtype=np.int64)
    rep = vertices
    for i in range(0, len(elements), step):
        rep = np.minimum(rep, image_tables(elements[i : i + step]).min(axis=0))
    is_rep = rep == vertices
    reps = np.flatnonzero(is_rep)
    orbit_index = (np.cumsum(is_rep) - 1)[rep]
    neighbours = orbit_index[reps[:, None] ^ (1 << np.arange(n))]
    adj = []
    for a, row in enumerate(neighbours.tolist()):
        mask = 0
        for b in row:
            mask |= 1 << b
        adj.append(mask & ~(1 << a))
    reps = reps.tolist()
    width = f"0{n}b"
    labels = [format(r, width)[::-1] for r in reps]  # BitVector(n, r).to_string(), unvalidated
    graph = SimpleGraph._unchecked(len(reps), adj, labels)
    return QuotientGraph(n, K, reps, orbit_index.tolist(), graph)


def natural_map(Q: QuotientGraph, v: BitVector) -> int:
    """Orbit id of a cube vertex; constant on K-orbits."""
    if v.n != Q.n:
        raise DimensionMismatch(f"vertex has n={v.n}, quotient has n={Q.n}")
    return Q.orbit_index[v.bits]


def sphere(Q: QuotientGraph, base: int, level: int) -> tuple[int, ...]:
    """Orbit ids at graph distance `level` from orbit `base`, ascending."""
    if level < 0:
        raise ValueError("level must be non-negative")
    masks = Q.graph.bfs_level_masks(base, level)
    if level >= len(masks):
        return ()
    return tuple(bits_of(masks[level]))


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


def normalizing_translations(K: CubeGroup) -> list[int]:
    """A basis of Y_0 = {y : y^s xor y in T for every generator (x, s) of K}.

    T is the subspace of translations in K. Conjugating (x, s) by (y, id)
    gives (x xor y^s xor y, s), and (x xor z, s) lies in K iff z lies in T,
    so Y_0 is the subspace of translations that normalize K. The condition
    is linear in y; one Gaussian elimination over F_2 in the n unknowns
    y_1..y_n solves it, with no loop over the 2^n translations.
    """
    n = K.n
    t_pivots = _translation_pivots(K)
    perms = [g.perm.images for g in K.generators if not g.perm.is_identity()]
    # Row i is (f(e_i), e_i), where f(y) stacks y^s xor y mod T for every s.
    # In an echelon basis of the rows, those whose f-part vanished (leading
    # bit below n) span the kernel of f, which is Y_0.
    pivots: dict[int, int] = {}
    for i in range(n):
        image = 0
        for j, images in enumerate(perms):
            image |= _reduce((1 << images[i]) ^ (1 << i), t_pivots) << (j * n)
        _add_to_span(image << n | 1 << i, pivots)
    return [v for p, v in pivots.items() if p < n]


def translation_roots(Q: QuotientGraph) -> list[int]:
    """One quotient vertex per orbit of the translations normalizing K, ascending.

    Each such translation acts on the quotient as an automorphism, so the
    result is a valid `roots` argument of `graph_core.local_params`. The
    orbits are found by a search over a basis of Y_0 modulo T (translations
    in K act trivially).
    """
    span = _translation_pivots(Q.group)
    moves = [y for y in normalizing_translations(Q.group) if _add_to_span(y, span)]
    reps, index = Q.reps, Q.orbit_index
    seen = [False] * len(reps)
    roots = []
    for root in range(len(reps)):
        if seen[root]:
            continue
        roots.append(root)
        seen[root] = True
        stack = [root]
        while stack:
            r = reps[stack.pop()]
            for y in moves:
                b = index[r ^ y]
                if not seen[b]:
                    seen[b] = True
                    stack.append(b)
    return roots


def quotient_params(Q: QuotientGraph, max_level: int) -> list[LocalParams]:
    """`local_params` of the quotient graph, searched from `translation_roots` only."""
    return local_params(Q.graph, max_level, roots=translation_roots(Q))


def natural_covering(Q: QuotientGraph):
    """The natural projection packaged as a covering-map candidate."""
    from .covering import CoveringMap

    return CoveringMap(Q.n, Q.graph, Q.orbit_index)
