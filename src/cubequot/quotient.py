"""Orbit partitions of the n-cube under a subgroup and the quotient graph.

Vertices of Q_n are the integers 0..2^n-1. The representative of an orbit
is its numerically smallest vertex. It is found for every vertex at once
from K's generators alone: `perm_groups.orbit_minima` runs on the image
tables v -> g(v) of the generators, so building a quotient never lists
K's elements, and neither does `translation_roots`: it reads the
translations in K off the group's Schreier walk. Orbit ids are sorted by
representative, and vertex labels of the quotient graph are the
representative bit strings (coordinate 1 leftmost).
Distinct orbits are adjacent whenever some member of one is cube-adjacent
to a member of the other; loops are discarded. K acts by cube
automorphisms, so the neighbours of g(r) lie in the orbits of the
neighbours of r, and the adjacency is read off the n cube neighbours of
each representative alone. That V x n table of neighbour orbit ids,
normalised, is the graph's adjacency (see `graph_core`).
Semiregularity is not required, so degenerate quotients can be built and
inspected.

A translation (y, id) that normalizes K maps orbits to orbits, so it acts
on the quotient as a graph automorphism. `translation_roots` picks one
vertex per orbit of these automorphisms, with the same orbit routine on
the quotient vertices; distance parameters need a BFS from those roots only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cube_symmetry import (
    BitVector,
    CubeGroup,
    _add_to_span,
    _translation_pivots,
    normalizing_translations,
)
from .errors import DimensionMismatch, DimensionTooLarge, PreconditionViolated
from .graph_core import LocalParams, SimpleGraph, _distances, local_params
from .perm_groups import orbit_minima

MAX_QUOTIENT_DIMENSION = 20


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

    def __repr__(self) -> str:
        return f"QuotientGraph(n={self.n}, |K|={self.group.order}, vertices={len(self.reps)})"


def image_tables(elements: Sequence[tuple[int, Sequence[int]]]):
    """Numpy array whose row k is the table v -> g_k(v), for 0 <= v < 2^n.

    Element g_k is given as its key (translation bits y, images): g_k(v) is
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
    gens = [g.key() for g in K.generators]
    vertices = np.arange(1 << n, dtype=np.int64)
    rep = orbit_minima(image_tables(gens)) if gens else vertices
    is_rep = rep == vertices
    reps = np.flatnonzero(is_rep)
    orbit_index = (np.cumsum(is_rep) - 1)[rep]
    neighbours = orbit_index[reps[:, None] ^ (1 << np.arange(n))]
    # labels BitVector(n, r).to_string(): bit j of r is character j, one row
    # of ASCII digits and a newline per representative, decoded at once
    text = np.empty((len(reps), n + 1), np.uint8)
    text[:, :n] = 48 + ((reps[:, None] >> np.arange(n)) & 1)
    text[:, n] = 10
    graph = SimpleGraph._from_table(neighbours, str(text.data, "ascii").split())
    return QuotientGraph(n, K, reps.tolist(), orbit_index.tolist(), graph)


def natural_map(Q: QuotientGraph, v: BitVector) -> int:
    """Orbit id of a cube vertex; constant on K-orbits."""
    if v.n != Q.n:
        raise DimensionMismatch(f"vertex has n={v.n}, quotient has n={Q.n}")
    return Q.orbit_index[v.bits]


def induced_map(Q: QuotientGraph, images) -> Optional[list[int]]:
    """The map on Q's orbits induced by v -> images[v] on cube vertices (a
    numpy array of 2^n entries), or None when images is not constant on some
    orbit."""
    import numpy as np

    mapping = images[np.array(Q.reps)]
    if not np.array_equal(mapping[np.array(Q.orbit_index)], images):
        return None
    return mapping.tolist()


def sphere(Q: QuotientGraph, base: int, level: int) -> tuple[int, ...]:
    """Orbit ids at distance `level` from orbit `base`, ascending; ValueError for bad input."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return tuple((_distances(Q.graph, base, level) == level).nonzero()[0].tolist())


def translation_roots(Q: QuotientGraph) -> list[int]:
    """One quotient vertex per orbit of the translations normalizing K, ascending.

    Each such translation acts on the quotient as an automorphism, so the
    result is a valid `roots` argument of `graph_core.local_params`. The
    roots are the orbit minima under a basis of Y_0 modulo T (translations
    in K act trivially), y acting as r -> orbit_index[reps[r] xor y].
    """
    import numpy as np

    span = _translation_pivots(Q.group)
    moves = [y for y in normalizing_translations(Q.group) if _add_to_span(y, span)]
    if not moves:
        return list(range(len(Q.reps)))
    reps = np.array(Q.reps, dtype=np.int64)
    index = np.array(Q.orbit_index, dtype=np.int64)
    rep = orbit_minima([index[reps ^ y] for y in moves])
    return np.flatnonzero(rep == np.arange(len(reps))).tolist()


def quotient_params(Q: QuotientGraph, max_level: int) -> list[LocalParams]:
    """`local_params` of the quotient graph, searched from `translation_roots` only.
    A quotient of Q_n has diameter at most n, so levels above n are refused."""
    if max_level > Q.n:
        raise PreconditionViolated(f"max_level {max_level} exceeds the dimension n={Q.n}")
    return local_params(Q.graph, max_level, roots=translation_roots(Q))


def natural_covering(Q: QuotientGraph):
    """The natural projection packaged as a covering-map candidate."""
    from .covering import CoveringMap

    return CoveringMap(Q.n, Q.graph, Q.orbit_index)
