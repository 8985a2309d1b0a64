"""Graph isomorphism, automorphism groups, and vertex-transitivity.

One individualization-refinement search serves both questions. Both run on
the graph's neighbour table (`graph_core.neighbor_table`), its one stored
adjacency. Vertices are colored by an isomorphism-invariant signature (degree
plus distance-sphere profile, counted from one breadth-first search from
every vertex at once, `graph_core.bfs_levels`), the coloring is refined to
equitability by iterated neighbor-color multisets (one row sort of an
n x max-degree color array per round), and the
search branches on the first largest non-singleton color class, smallest
vertex first. G's first path takes the smallest vertex at every depth and
records the class sizes after each refinement (its trace) and its leaf. A
tree search of X then follows every branch whose trace matches, and reads a
leaf as the map taking the vertex of each color in G's first leaf to the
vertex of that color in X's leaf. With X = G the maps are automorphisms;
branches are also pruned by the orbits of the automorphisms already found
that fix the current prefix, and |Aut(G)| is the product of the first
path's stabilizer orbit lengths under them (McKay's "Practical graph
isomorphism", 1981), so no second group algorithm runs. With X = H the
first map that checks is an isomorphism G -> H. Every map p is checked
before it is returned or recorded: the rows of p[table_G], sorted, must
equal the rows table_H[p].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import TooLarge
from .graph_core import SimpleGraph, neighbor_table, sphere_sizes
from .perm_groups import orbit_minima

MAX_ISO_VERTICES = 2000
MAX_AUT_VERTICES = 512


# ---------------------------------------------------------------------------
# Refinement machinery
# ---------------------------------------------------------------------------


def _canonical_colors(values: Sequence) -> list[int]:
    """Map arbitrary hashable per-vertex values to color ids 0..k-1."""
    order = {val: i for i, val in enumerate(sorted(set(values)))}
    return [order[val] for val in values]


def _invariant_values(table) -> list[tuple]:
    """Per-vertex invariant: (degree, sizes of the nonempty distance spheres),
    from one search of `graph_core.bfs_levels` from every vertex."""
    import numpy as np

    sizes = sphere_sizes(table)[1:]
    if not sizes:
        return [(0, ())] * len(table)
    rows = np.stack(sizes, axis=1)
    depths = np.count_nonzero(rows, axis=1).tolist()  # the nonempty spheres are a prefix
    return [(row[0], tuple(row[:d])) for row, d in zip(rows.tolist(), depths)]


_PAD = 32767  # the int16 maximum: sorts after every color


def _refine(table, colors: list[int]) -> list[int]:
    """Equitable refinement by iterated neighbor-color multisets.

    Each round ranks the signatures (own color, sorted neighbor colors)
    among the distinct ones, as sorted(set(signatures)) would, until a round
    splits no class. Row v of `table` lists v's neighbors padded with n. A
    signature is one int16 row: the own color, then the gathered colors
    sorted with the pad last and turned into -1, so rows order as Python
    orders those tuples of unequal length. Colors stay below
    n <= MAX_ISO_VERTICES, well inside int16.
    """
    import numpy as np

    n = len(table)
    ncolors = len(set(colors))
    ext = np.empty(n + 1, dtype=np.int16)
    ext[:n] = colors
    ext[n] = _PAD
    sig = np.empty((n, table.shape[1] + 1), dtype=np.int16)
    nbr = sig[:, 1:]
    ranks = np.empty(n, dtype=np.int16)
    while True:
        sig[:, 0] = ext[:n]
        nbr[...] = ext[table]
        nbr.sort(axis=1)
        nbr[nbr == _PAD] = -1
        order = np.lexsort(sig.T[::-1])
        ranked = sig[order]
        ranks[0] = 0
        np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1), out=ranks[1:])
        count = int(ranks[-1]) + 1
        if count == ncolors:
            return ext[:n].tolist()
        ext[order] = ranks
        ncolors = count


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


def _first_path(table, colors: list[int]) -> tuple[list[int], list[list[int]]]:
    """G's leftmost path: the smallest vertex of the target cell at each depth.

    Returns the path and the refined colorings along it, from `colors` to
    the discrete leaf.
    """
    path: list[int] = []
    colorings = [colors]
    cell = _target_cell(colors)
    while cell != -1:
        path.append(colors.index(cell))
        colors = _refine(table, _individualize(colors, path[-1]))
        colorings.append(colors)
        cell = _target_cell(colors)
    return path, colorings


# ---------------------------------------------------------------------------
# One search: G's first path against the tree of X (G itself or H)
# ---------------------------------------------------------------------------


def _search(
    table_G,
    table,
    colors: list[int],
    first: tuple[list[int], list[list[int]]],
    on_first_path: bool,
) -> list[tuple[int, ...]]:
    """The leaves of X's tree that map G onto X, as found.

    `table_G` is G's neighbor table, `table` and `colors` are X's neighbor
    table and refined coloring; `first` is G's first path. A branch is
    followed while its class sizes after each refinement (its trace) match
    the first path's. A leaf gives the map base[c] -> lab[c], checked row by
    row (`_maps_rows`). With X = G and
    `on_first_path` set, the search skips the first-path leaf (the
    identity) and collects generators of Aut(G); otherwise it stops at the
    first leaf that checks.
    """
    path, colorings = first
    traces = [_class_sizes(c) for c in colorings[1:]]
    base = _leaf_labeling(colorings[-1])
    n = len(table)
    found: list[tuple[int, ...]] = []

    def rec(colors: list[int], prefix: list[int], on_path: bool) -> bool:
        depth = len(prefix)
        if depth == len(path):
            if on_path:
                return False
            lab = _leaf_labeling(colors)
            p = [0] * n
            for c in range(n):
                p[base[c]] = lab[c]
            if not _maps_rows(table_G, table, p):
                return False
            found.append(tuple(p))
            return True
        # frames on G's first path run their whole candidate loop; any other
        # frame may stop after one success, because further leaves below it
        # only give products of that success with prefix stabilizer elements
        # already generated along the first path (off G's own tree, the first
        # success is the isomorphism and ends the search)
        cell = _target_cell(colors)
        candidates = [v for v in range(n) if colors[v] == cell]
        explored: list[int] = []
        # orbit minima of the automorphisms fixing the prefix, redone when found grows
        orbit: Optional[list[int]] = None
        orbit_gens = 0
        for v in candidates:
            if explored:
                if len(found) != orbit_gens:
                    orbit_gens = len(found)
                    fixers = [g for g in found if all(g[x] == x for x in prefix)]
                    orbit = orbit_minima(fixers).tolist() if fixers else None
                if orbit is not None and any(orbit[w] == orbit[v] for w in explored):
                    explored.append(v)
                    continue
            explored.append(v)
            stays = on_path and v == path[depth]
            if stays:
                child = colorings[depth + 1]  # refined once already
            else:
                child = _refine(table, _individualize(colors, v))
                if _class_sizes(child) != traces[depth]:
                    continue
            if rec(child, prefix + [v], stays) and not on_path:
                return True
        return False

    rec(colors, [], on_first_path)
    return found


def _automorphism_search(G: SimpleGraph) -> tuple[list[int], list[tuple[int, ...]]]:
    """G's first path and the generators of Aut(G) found by searching G's tree."""
    if G.n == 0:
        return [], []
    table = neighbor_table(G)
    colors = _refine(table, _canonical_colors(_invariant_values(table)))
    first = _first_path(table, colors)
    return first[0], _search(table, table, colors, first, True)


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
    """Generators of Aut(G) and its exact order, read off G's first path.

    With b_d the first path's vertex at depth d and A_d the automorphisms
    fixing b_0..b_{d-1}, A_d acts on the orbit of b_d with stabilizer
    A_{d+1}, and an automorphism fixing the whole path fixes its discrete
    leaf coloring, so |Aut(G)| = prod_d |orbit of b_d under A_d|. The
    generators found that fix b_0..b_{d-1} give that whole orbit (McKay,
    "Practical graph isomorphism", 1981): a frame on the first path tries
    every vertex of its cell but those already in the orbit of a tried
    one, and below each tried vertex v it finds a map whenever some
    automorphism fixes b_0..b_{d-1} and sends b_d to v. So each factor is
    one `orbit_minima` call, and the empty product is 1.
    """
    import numpy as np

    if G.n > MAX_AUT_VERTICES:
        raise TooLarge(f"automorphism search capped at {MAX_AUT_VERTICES} vertices")
    path, gens = _automorphism_search(G)
    order = 1
    fixers = np.array(gens, dtype=np.intp).reshape(len(gens), G.n)
    for b in path:
        if not len(fixers):
            break
        rep = orbit_minima(fixers)
        order *= int(np.count_nonzero(rep == rep[b]))
        fixers = fixers[fixers[:, b] == b]
    return PermGroupOnGraph(G.n, tuple(gens), order)


def is_vertex_transitive(G: SimpleGraph) -> bool:
    return automorphism_group(G).is_transitive()


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _maps_rows(table_G, table_H, p: Sequence[int]) -> bool:
    """Whether the bijection p maps each neighbour row of G onto the row of
    its image in H: the rows of p[table_G], sorted, equal table_H[p]. The
    pad (the vertex count) maps to itself, so a row of another degree differs."""
    import numpy as np

    if table_G.shape != table_H.shape:
        return False
    n = len(table_G)
    image = np.empty(n + 1, dtype=np.intp)
    image[:n] = p
    image[n] = n
    rows = image[table_G]
    rows.sort(axis=1)
    return bool(np.array_equal(rows, table_H[image[:n]]))


def verify_isomorphism(G: SimpleGraph, H: SimpleGraph, mapping: Sequence[int]) -> bool:
    """Whether mapping is an isomorphism G -> H, checked vertex by vertex.

    It must be a bijection that maps the neighbours of v onto those of
    mapping[v] for every v.
    """
    n = G.n
    if H.n != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    return _maps_rows(neighbor_table(G), neighbor_table(H), mapping)


def are_isomorphic(G: SimpleGraph, H: SimpleGraph) -> Optional[list[int]]:
    """A vertex bijection G -> H preserving adjacency, or None.

    The verdict does not depend on vertex order of the inputs; the witness
    is deterministic for a given labeled pair.
    """
    if max(G.n, H.n) > MAX_ISO_VERTICES:
        raise TooLarge(f"isomorphism search capped at {MAX_ISO_VERTICES} vertices")
    if G.n != H.n or sorted(G.degrees()) != sorted(H.degrees()):
        return None
    n = G.n
    if n == 0:
        return []
    table_G, table_H = neighbor_table(G), neighbor_table(H)
    inv_G, inv_H = _invariant_values(table_G), _invariant_values(table_H)
    if sorted(inv_G) != sorted(inv_H):
        return None
    colors = _canonical_colors(inv_G + inv_H)
    colors_G = _refine(table_G, colors[:n])
    colors_H = _refine(table_H, colors[n:])
    if _class_sizes(colors_G) != _class_sizes(colors_H):
        return None
    found = _search(table_G, table_H, colors_H, _first_path(table_G, colors_G), False)
    return list(found[0]) if found else None
