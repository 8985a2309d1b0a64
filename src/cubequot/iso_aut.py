"""Graph isomorphism, automorphism groups, and vertex-transitivity.

Both searches run individualization-refinement: vertices are colored by an
isomorphism-invariant signature (degree plus distance-sphere profile), the
coloring is refined to equitability by iterated neighbor-color multisets,
and the search branches on the first largest non-singleton color class,
smallest vertex first. Automorphisms are read off by comparing discrete
colorings against the first leaf; candidate branches are pruned by orbits
of the automorphisms already found (restricted to those fixing the current
prefix) and by comparing refinement traces against the first path. Every
witness is re-verified edge by edge before it is returned or recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvariantViolated, TooLarge
from .graph_core import SimpleGraph, bits_of
from .perm_groups import PermutationGroup, orbit_minima

MAX_ISO_VERTICES = 2000
MAX_AUT_VERTICES = 512


# ---------------------------------------------------------------------------
# Refinement machinery
# ---------------------------------------------------------------------------


def _canonical_colors(values: Sequence) -> list[int]:
    """Map arbitrary hashable per-vertex values to color ids 0..k-1."""
    order = {val: i for i, val in enumerate(sorted(set(values)))}
    return [order[val] for val in values]


def _invariant_values(G: SimpleGraph) -> list[tuple]:
    """Per-vertex invariant: (degree, sizes of the distance spheres)."""
    return [
        (G.degree(v), tuple(m.bit_count() for m in G.bfs_level_masks(v)[1:]))
        for v in range(G.n)
    ]


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Equitable refinement by iterated neighbor-color multisets."""
    n = len(nbrs)
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            nc = sorted(colors[w] for w in nbrs[v])
            sigs.append((colors[v], tuple(nc)))
        order = sorted(set(sigs))
        if len(order) == ncolors:
            return colors
        remap = {s: i for i, s in enumerate(order)}
        colors = [remap[s] for s in sigs]
        ncolors = len(order)


def _class_sizes(colors: list[int]) -> list[int]:
    sizes = [0] * (max(colors) + 1)
    for c in colors:
        sizes[c] += 1
    return sizes


def _target_cell(colors: list[int]) -> int:
    """First largest non-singleton color class; -1 when discrete."""
    sizes = _class_sizes(colors)
    best = -1
    best_size = 1
    for c, s in enumerate(sizes):
        if s > best_size:
            best = c
            best_size = s
    return best


def _individualize(colors: list[int], v: int) -> list[int]:
    out = colors[:]
    out[v] = max(colors) + 1
    return out


def _leaf_labeling(colors: list[int]) -> list[int]:
    lab = [0] * len(colors)
    for v, c in enumerate(colors):
        lab[c] = v
    return lab


def _is_graph_automorphism(adj: Sequence[int], p: Sequence[int]) -> bool:
    for v in range(len(adj)):
        m = 0
        for w in bits_of(adj[v]):
            m |= 1 << p[w]
        if m != adj[p[v]]:
            return False
    return True


# ---------------------------------------------------------------------------
# Automorphism search
# ---------------------------------------------------------------------------


def automorphism_generators(G: SimpleGraph) -> list[tuple[int, ...]]:
    """Generators of Aut(G), each verified to preserve adjacency."""
    n = G.n
    if n == 0:
        return []
    adj = G.adj
    nbrs = [G.neighbors(v) for v in range(n)]
    colors0 = _refine(nbrs, _canonical_colors(_invariant_values(G)))
    gens: list[tuple[int, ...]] = []
    first_leaf: list[Optional[list[int]]] = [None]
    first_trace: list[tuple] = []
    identity = tuple(range(n))

    def rec(colors: list[int], depth: int, prefix: list[int]) -> None:
        if max(colors) + 1 == n:
            lab = _leaf_labeling(colors)
            if first_leaf[0] is None:
                first_leaf[0] = lab
                return
            base = first_leaf[0]
            p = [0] * n
            for c in range(n):
                p[base[c]] = lab[c]
            p = tuple(p)
            if p != identity and _is_graph_automorphism(adj, p):
                gens.append(p)
            return
        # frames entered before the first leaf exists lie on the leftmost
        # path and must run their whole candidate loop; any other frame may
        # stop after one success, because further leaves below it only give
        # products of that success with prefix stabilizer elements already
        # generated along the first path
        on_first_path = first_leaf[0] is None
        cell = _target_cell(colors)
        candidates = [v for v in range(n) if colors[v] == cell]
        explored: list[int] = []
        # orbit minima of the generators fixing the prefix, redone when gens grows
        orbit: Optional[list[int]] = None
        orbit_gens = 0
        for v in candidates:
            if explored:
                if len(gens) != orbit_gens:
                    orbit_gens = len(gens)
                    fixers = [g for g in gens if all(g[x] == x for x in prefix)]
                    orbit = orbit_minima(fixers).tolist() if fixers else None
                if orbit is not None and any(orbit[w] == orbit[v] for w in explored):
                    explored.append(v)
                    continue
            child = _refine(nbrs, _individualize(colors, v))
            trace = tuple(_class_sizes(child))
            if first_leaf[0] is None:
                # still descending the leftmost path; record its trace
                if len(first_trace) != depth:
                    raise InvariantViolated("first-path trace out of step with the depth")
                first_trace.append(trace)
            elif trace != first_trace[depth]:
                explored.append(v)
                continue
            found_before = len(gens)
            rec(child, depth + 1, prefix + [v])
            explored.append(v)
            if not on_first_path and len(gens) > found_before:
                return
        if first_leaf[0] is None:
            raise InvariantViolated("search left the first path without a leaf")

    rec(colors0, 0, [])
    return gens


@dataclass(frozen=True)
class PermGroupOnGraph:
    """Automorphism group of a graph: generators plus exact order."""

    degree: int
    generators: tuple[tuple[int, ...], ...]
    order: int

    def vertex_orbits(self) -> list[list[int]]:
        if not self.generators:
            return [[v] for v in range(self.degree)]
        buckets: dict[int, list[int]] = {}
        for v, r in enumerate(orbit_minima(self.generators).tolist()):
            buckets.setdefault(r, []).append(v)
        return sorted(buckets.values())

    def is_transitive(self) -> bool:
        return len(self.vertex_orbits()) == 1


def automorphism_group(G: SimpleGraph) -> PermGroupOnGraph:
    """Generators of Aut(G) and its exact order (Schreier-Sims)."""
    if G.n > MAX_AUT_VERTICES:
        raise TooLarge(f"automorphism search capped at {MAX_AUT_VERTICES} vertices")
    gens = automorphism_generators(G)
    bsgs = PermutationGroup(max(G.n, 1))
    for g in gens:
        bsgs.add_generator(g)
    return PermGroupOnGraph(G.n, tuple(gens), bsgs.order())


def is_vertex_transitive(G: SimpleGraph) -> bool:
    return automorphism_group(G).is_transitive()


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------


def _side_balanced(colors: list[int], n: int) -> bool:
    """Each color class must hold equally many vertices of either graph."""
    balance = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        balance[c] += 1 if v < n else -1
    return not any(balance)


def verify_isomorphism(G: SimpleGraph, H: SimpleGraph, mapping: Sequence[int]) -> bool:
    """Edge-by-edge check that mapping is a graph isomorphism G -> H."""
    if G.n != H.n or len(mapping) != G.n or G.edge_count != H.edge_count:
        return False
    if sorted(mapping) != list(range(G.n)):
        return False
    for u, v in G.edges():
        if not H.has_edge(mapping[u], mapping[v]):
            return False
    return True


def are_isomorphic(G: SimpleGraph, H: SimpleGraph) -> Optional[list[int]]:
    """A vertex bijection G -> H preserving adjacency, or None.

    The verdict does not depend on vertex order of the inputs; the witness
    is deterministic for a given labeled pair.
    """
    if max(G.n, H.n) > MAX_ISO_VERTICES:
        raise TooLarge(f"isomorphism search capped at {MAX_ISO_VERTICES} vertices")
    if G.n != H.n or G.edge_count != H.edge_count:
        return None
    if sorted(G.degrees()) != sorted(H.degrees()):
        return None
    n = G.n
    if n == 0:
        return []
    adj = list(G.adj) + [m << n for m in H.adj]
    nbrs = [list(bits_of(m)) for m in adj]
    inv = _invariant_values(G) + _invariant_values(H)
    if sorted(inv[:n]) != sorted(inv[n:]):
        return None
    colors0 = _refine(nbrs, _canonical_colors(inv))
    if not _side_balanced(colors0, n):
        return None

    result: list[Optional[list[int]]] = [None]

    def rec(colors: list[int]) -> None:
        if result[0] is not None:
            return
        sizes = _class_sizes(colors)
        cell = -1
        cell_size = 2
        for c, s in enumerate(sizes):
            if s > cell_size:
                cell = c
                cell_size = s
        if cell == -1:
            mapping = [-1] * n
            mate: dict[int, int] = {}
            for v, c in enumerate(colors):
                if c in mate:
                    a, b = mate[c], v
                    mapping[a] = b - n
                else:
                    mate[c] = v
            if verify_isomorphism(G, H, mapping):
                result[0] = mapping
            return
        members = [v for v in range(2 * n) if colors[v] == cell]
        v = members[0]  # smallest G-side vertex: classes are balanced
        h_side = [w for w in members if w >= n]
        for w in h_side:
            child = colors[:]
            fresh = max(colors) + 1
            child[v] = fresh
            child[w] = fresh
            child = _refine(nbrs, child)
            if not _side_balanced(child, n):
                continue
            rec(child)
            if result[0] is not None:
                return

    rec(colors0)
    return result[0]
