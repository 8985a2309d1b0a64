"""Finite simple graphs and the constructions around distance-2 structure.

Vertices are 0..n-1. A graph holds its adjacency as one neighbour table
(`neighbor_table`): row v lists v's neighbours ascending, padded with V to
the largest degree. That is what a quotient of the cube gives directly, V
rows of at most n entries, where V bit masks would cost V^2/8 bytes.
Every algorithm reads the table, and every search, from one root or
many, runs the one BFS kernel `bfs_levels`. The star-clique test builds
bit masks of each neighbourhood alone; masks of the whole graph
(`SimpleGraph.adj`) are a view for outside readers, refused with
TooLarge above MASK_BUDGET_BYTES. Graphs are immutable after
construction and all operations are pure.

Distance parameters follow the usual convention: for vertices u, v at
distance i, c_i(u, v) counts neighbors of v at distance i-1 from u and
a_i(u, v) counts neighbors of v at distance i from u; plain c_i or a_i is
written only when the count is independent of the pair. UNDEFINED marks a
level where the counts vary; VACUOUS marks a level with no pairs at all,
which callers treat as satisfying any required value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence, Union

from .errors import BadDimension, NotBipartite, NotConnected, PreconditionViolated, TooLarge
from .perm_groups import orbit_minima


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


UNDEFINED = _Sentinel("UNDEFINED")
VACUOUS = _Sentinel("VACUOUS")

ParamValue = Union[int, _Sentinel]

# Largest adjacency-mask set a graph builds: V^2/8 bytes for V
# vertices. The trivial quotient of Q_16 (512 MiB) fits; that of Q_17 does not.
MASK_BUDGET_BYTES = 1 << 30


def bits_of(mask: int):
    """Iterate set bit positions of mask, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class SimpleGraph:
    """Finite undirected graph without loops or multi-edges.

    The adjacency is one neighbour table (see `neighbor_table`), normalised
    when the graph is built: from bit masks (`__init__`), from an edge list
    (`from_edges`), or from raw rows that may hold repeats and self-entries
    (`_from_table`, used by quotients and derived graphs). The bit masks
    of `adj` are a view for outside readers, cached on first read. A
    vertex id that is not an int in 0..n-1 (or is a bool) raises ValueError.
    """

    __slots__ = ("n", "labels", "_table", "_adj")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None):
        if len(adj) != n:
            raise ValueError("adjacency length differs from vertex count")
        for v, mask in enumerate(adj):
            if mask >> n:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {n}")
            if (mask >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        keys = []
        for v in range(n):
            for w in bits_of(adj[v]):
                if not (adj[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
                keys.append(v * n + w)
        if labels is not None and len(labels) != n:
            raise ValueError("label count differs from vertex count")
        self._fill(_table_from_keys(n, keys), labels, tuple(adj))

    @classmethod
    def _from_table(cls, table, labels: Optional[Sequence[str]] = None) -> "SimpleGraph":
        """An unchecked graph from a V x d integer array: row v lists the
        neighbours of v in any order, and may repeat one, hold v itself or
        hold the pad V (all three are dropped). w is in row v exactly when v
        is in row w, w != v."""
        import numpy as np

        n = len(table)
        table = np.sort(table, axis=1).astype(np.intp, copy=False)
        drop = table == np.arange(n)[:, None]
        drop[:, 1:] |= table[:, 1:] == table[:, :-1]
        # a sorted row holds the pad V only at its end
        if drop.any() or not n or (table[:, -1:] >= n).any():
            table[drop] = n
            table.sort(axis=1)
            # rows ascend, so column j holds a neighbour exactly when j < max degree
            width = int(np.count_nonzero(table.min(axis=0, initial=n) < n))
            table = np.ascontiguousarray(table[:, :width])
        table.flags.writeable = False
        return object.__new__(cls)._fill(table, labels)

    def _fill(self, table, labels: Optional[Sequence[str]], adj=None) -> "SimpleGraph":
        object.__setattr__(self, "n", len(table))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_adj", adj)
        return self

    @property
    def adj(self) -> tuple[int, ...]:
        """One bit mask per vertex, built from the table on first read."""
        if self._adj is None:
            object.__setattr__(self, "_adj", _masks_from_table(self._table))
        return self._adj

    def __setattr__(self, *_):
        raise AttributeError("SimpleGraph is immutable")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "SimpleGraph":
        """The graph on 0..n-1 with the given edges; a repeated edge counts once.

        ValueError, naming the edge, for a loop or an end that is not an int
        in 0..n-1 (a bool is no vertex id), and for a label count other than n.
        """
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count {n!r} is not a non-negative int")
        keys = []
        for u, v in edges:
            for x in (u, v):
                if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                    raise ValueError(f"edge {(u, v)!r}: {x!r} is not a vertex id in 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            keys += (u * n + v, v * n + u)
        if labels is not None and len(labels) != n:
            raise ValueError("label count differs from vertex count")
        return object.__new__(cls)._fill(_table_from_keys(n, keys), labels)

    def neighbors(self, v: int) -> list[int]:
        row = self._table[_vertex(self.n, v)]
        return row[row < self.n].tolist()

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._table[_vertex(self.n, u)] == _vertex(self.n, v)).any())

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted pairs in lexicographic order."""
        return list(map(tuple, _edges_from_table(self._table).tolist()))

    def degrees(self) -> list[int]:
        import numpy as np

        return np.count_nonzero(self._table < self.n, axis=1).tolist()

    def is_regular(self) -> bool:
        return len(set(self.degrees())) <= 1

    def induced(self, vertices: Sequence[int]) -> "SimpleGraph":
        """Subgraph induced on the given vertices, relabeled in sorted order."""
        import numpy as np

        verts = sorted(vertices)
        index = np.full(self.n + 1, len(verts), dtype=np.intp)  # others and the pad
        index[verts] = np.arange(len(verts))
        labels = None
        if self.labels is not None:
            labels = [self.labels[v] for v in verts]
        return SimpleGraph._from_table(index[self._table[verts]], labels)

    def relabeled(self, perm: Sequence[int]) -> "SimpleGraph":
        """Image under a vertex permutation: new index of v is perm[v].

        ValueError when perm is not a bijection of 0..n-1.
        """
        import numpy as np

        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"perm is not a bijection of 0..{self.n - 1}")
        moved = np.append(np.asarray(perm, dtype=np.intp), self.n)  # the pad stays
        table = np.empty_like(self._table)
        table[moved[:-1]] = moved[self._table]
        labels = None
        if self.labels is not None:
            labels = [""] * self.n
            for v in range(self.n):
                labels[perm[v]] = self.labels[v]
        return SimpleGraph._from_table(table, labels)

    def bfs_level_masks(self, start: int, max_level: Optional[int] = None) -> list[int]:
        """Masks of the distance spheres around start, index = distance.

        A view on `bfs_levels` from one root that no algorithm calls; it
        stays because the benchmark's traced run wraps it by name. With
        max_level set, the list has at most max_level + 1 masks; a shorter
        list means the spheres beyond it are empty.
        """
        levels = bfs_levels(self._table, [_vertex(self.n, start)], max_level)
        return [_masks_from_rows(level.nonzero()[0][None, :], self.n)[0] for level in levels]

    def is_connected(self) -> bool:
        return self.n == 0 or bool((_distances(self, 0)[:-1] >= 0).all())

    def connected_components(self) -> list[list[int]]:
        """Components ascending, by least vertex: the orbit minima of the
        table's columns, with the pad mapped to the row's own vertex."""
        import numpy as np

        own = np.arange(self.n)[:, None]
        rep = orbit_minima(np.where(self._table < self.n, self._table, own).T)
        order = np.argsort(rep, kind="stable")
        return [c.tolist() for c in np.split(order, np.flatnonzero(np.diff(rep[order])) + 1) if len(c)]

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"n_vertices": self.n, "edges": _edges_from_table(self._table).tolist()}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    def to_json(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\\n"`,
        written directly: the json encoder runs in pure Python under indent."""
        item = "    [\n      %d,\n      %d\n    ]"
        edges = _render_edges(_edges_from_table(self._table), item, ",\n")
        parts = ['{\n  "edges": ', _json_block(edges), ",\n"]
        if self.labels is not None:
            labels = ",\n".join(["    " + _json_string(lbl) for lbl in self.labels])
            parts += ['  "labels": ', _json_block(labels), ",\n"]
        parts.append(f'  "n_vertices": {self.n}\n}}\n')
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimpleGraph":
        return cls.from_edges(
            data["n_vertices"],
            [tuple(e) for e in data["edges"]],
            data.get("labels"),
        )

    def to_dot(self) -> str:
        lines = ["graph G {"]
        if self.labels is not None:
            lines += [f'  {v} [label="{lbl}"];' for v, lbl in enumerate(self.labels)]
        else:
            lines += [f"  {v};" for v in range(self.n)]
        edges = _render_edges(_edges_from_table(self._table), "  %d -- %d;", "\n")
        if edges:
            lines.append(edges)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        import numpy as np

        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.labels == other.labels
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"


def _json_block(items: str) -> str:
    """A list at indent level 1 of `json.dumps(..., indent=2)`, its items
    pre-rendered and joined."""
    return "[\n" + items + "\n  ]" if items else "[]"


def _json_string(value) -> str:
    """`json.dumps(value)`; a str goes straight to the C string encoder."""
    return encode_basestring_ascii(value) if type(value) is str else json.dumps(value)


_RENDER_CHUNK = 4096  # edges per %-format


def _render_edges(edges, item: str, sep: str) -> str:
    """`sep.join(item % (u, v) for u, v in edges)`, one %-format per chunk."""
    flat = edges.ravel().tolist()
    out = []
    for start in range(0, len(flat), 2 * _RENDER_CHUNK):
        chunk = flat[start : start + 2 * _RENDER_CHUNK]
        out.append(sep.join([item] * (len(chunk) // 2)) % tuple(chunk))
    return sep.join(out)


def _vertex(n: int, v, what: str = "vertex") -> int:
    """v if it is an int in 0..n-1, not a bool; ValueError naming it otherwise."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise ValueError(f"{what} {v!r} is not a vertex id in 0..{n - 1}")
    return v


def _check_mask_budget(vertices: int) -> None:
    """TooLarge when the masks of that many vertices, V^2/8 bytes, exceed
    MASK_BUDGET_BYTES."""
    size = vertices * vertices // 8
    if size > MASK_BUDGET_BYTES:
        raise TooLarge(
            f"adjacency masks of {vertices} vertices need about {size >> 20} MiB; "
            f"the budget is {MASK_BUDGET_BYTES >> 20} MiB"
        )


def _masks_from_table(table) -> tuple[int, ...]:
    """Bit-mask rows of a neighbour table, refused before any row is built
    when over the budget."""
    _check_mask_budget(len(table))
    return _masks_from_rows(table, len(table))


def _masks_from_rows(rows, size: int) -> tuple[int, ...]:
    """One mask per row of an int array, its entries below `size` the set
    bits (larger ones are a pad), packed a batch of rows at a time."""
    import numpy as np

    masks: list[int] = []
    step = max(1, _BATCH_BYTES // (size + 1))
    for lo in range(0, len(rows), step):
        batch = rows[lo : lo + step]
        bits = np.zeros((len(batch), size + 1), dtype=bool)  # column `size` takes the pad
        bits[np.arange(len(batch))[:, None], np.minimum(batch, size)] = True
        packed = np.packbits(bits[:, :size], axis=1, bitorder="little")
        masks += map(int.from_bytes, packed, ["little"] * len(packed))
    return tuple(masks)


def _edges_from_table(table):
    """The edges (u, v), u < v, of a neighbour table as an (E, 2) array in
    lexicographic order. Rows come in u order, ascending, and row u gives
    the edges (u, v > u), so no sort is needed."""
    import numpy as np

    own = np.arange(len(table), dtype=table.dtype)[:, None]
    keep = (table > own) & (table < len(table))
    return np.stack((np.broadcast_to(own, table.shape)[keep], table[keep]), axis=1)


def _table_from_keys(n: int, keys):
    """The read-only neighbour table of the ordered pairs (u, v) =
    divmod(key, n), in any order and with repeats; each pair's reverse must
    be among them."""
    import numpy as np

    us, vs = np.divmod(np.unique(np.asarray(keys, dtype=np.intp)), max(n, 1))
    degs = np.bincount(us, minlength=n)
    table = np.full((n, int(degs.max(initial=0))), n, dtype=np.intp)
    starts = np.cumsum(degs) - degs
    table[us, np.arange(len(us)) - starts[us]] = vs
    table.flags.writeable = False
    return table


# Size of one per-batch array of the all-roots runs and of the unpacking in
# `distance2_graph`, in bytes: roots or rows are taken in batches so that
# arrays of a byte (or a bit) per pair stay near it.
_BATCH_BYTES = 1 << 15


def neighbor_table(G: SimpleGraph):
    """G's neighbours as a read-only V x max-degree intp array: row v lists
    the neighbours of v ascending, padded with V. It is the graph's own
    adjacency, not a copy."""
    return G._table


def _root_batches(roots: Sequence[int], vertices: int, bits_per_pair: int):
    """`roots` in consecutive slices of a multiple of 64 roots (one word per
    64), each with at most 8 * _BATCH_BYTES / bits_per_pair (vertex, root)
    pairs when that allows a whole word."""
    step = max(1, 8 * _BATCH_BYTES // bits_per_pair // max(vertices, 1) // 64) * 64
    for lo in range(0, len(roots), step):
        yield roots[lo : lo + step]


def bfs_levels(table, roots: Sequence[int], max_level: Optional[int] = None):
    """Breadth-first search from every root at once over a neighbour table
    (see `neighbor_table`); yields the levels 0, 1, ... in order.

    Level k is a V x ceil(R/64) uint64 array for the roots r_0..r_{R-1}:
    bit j % 64 of word j // 64 in row v is set when r_j is at distance
    exactly k from v. Level k+1 is the OR of level k over each vertex's
    neighbour rows, less every bit reached so far. The search stops after
    max_level, or before the first empty level. A yielded array is never
    written to again. Each level takes R*V/8 bytes, so callers that search
    from every vertex pass the roots in batches (`_root_batches`). A root
    outside 0..V-1 would seed the pad row, so callers check theirs.
    """
    import numpy as np

    if not len(roots):
        return
    n = len(table)
    bit = np.arange(len(roots))
    # row n is the pad that the table's padding entries read: always empty
    level = np.zeros((n + 1, -(-len(roots) // 64)), dtype=np.uint64)
    ones = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
    np.bitwise_or.at(level, (np.asarray(roots, dtype=np.intp), bit >> 6), ones)
    reach = level.copy()
    gathered = np.empty((n, level.shape[1]), dtype=np.uint64)
    depth = 0
    while True:
        yield level[:n]
        if depth == max_level:
            return
        nxt = np.zeros_like(level)
        body = nxt[:n]
        for column in table.T:
            body |= level.take(column, axis=0, out=gathered)
        nxt &= ~reach
        if not nxt.any():
            return
        reach |= nxt
        level = nxt
        depth += 1


def sphere_sizes(table, max_level: Optional[int] = None) -> list:
    """|S_k(v)| for every vertex v of a neighbour table, as one int array of V
    entries per level k = 0, 1, ..., up to the last nonempty sphere (or
    max_level). Every vertex is a root, and distance is symmetric, so the
    bits of row v in level k count the sphere S_k(v)."""
    import numpy as np

    sizes: list = []
    for batch in _root_batches(range(len(table)), len(table), 1):
        for k, level in enumerate(bfs_levels(table, batch, max_level)):
            counts = np.bitwise_count(level).sum(axis=1, dtype=np.intp)
            if k < len(sizes):
                sizes[k] += counts
            else:
                sizes.append(counts)
    return sizes


def _distances(G: SimpleGraph, start: int, max_level: Optional[int] = None):
    """Distances from start by `bfs_levels`, V + 1 ints with -1 beyond
    max_level, out of reach and at the pad; ValueError for a bad start."""
    import numpy as np

    dist = np.full(G.n + 1, -1, dtype=np.intp)
    for k, level in enumerate(bfs_levels(G._table, [_vertex(G.n, start)], max_level)):
        dist[level.nonzero()[0]] = k
    return dist


@dataclass(frozen=True)
class LocalParams:
    """Distance parameters at one level, graph regularity alongside."""

    level: int
    c_value: ParamValue
    a_value: ParamValue
    is_regular: bool
    valency: ParamValue


def triangular_graph(n: int) -> SimpleGraph:
    """Vertices are the 2-subsets of {1..n}, adjacent when they share a point."""
    if n < 2:
        raise BadDimension(f"triangular graph needs n >= 2, got {n}")
    subsets = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {s: k for k, s in enumerate(subsets)}
    edges = []
    for k, (i, j) in enumerate(subsets):
        for s2 in subsets[k + 1 :]:
            if len({i, j} & set(s2)) == 1:
                edges.append((k, index[s2]))
    labels = [f"{i},{j}" for i, j in subsets]
    return SimpleGraph.from_edges(len(subsets), edges, labels)


def _star_labels(adj: Sequence[int], m: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Labels of the vertices of the graph with masks adj, in order, as
    2-subsets of {0..m-1} that meet exactly when the vertices are adjacent;
    None when the graph is not T_m. Needs m >= 5.

    For a neighbour u of v in T_m, the common neighbours of v and u are the
    m-3 other members of their star, pairwise adjacent, and one matched
    vertex adjacent to none of them. So the lowest common neighbour w gives
    the star: v, u, w and w's neighbours there if it has any, else v, u and
    the other common neighbours. v's second star comes from its lowest
    neighbour outside the first. Every step is exact on T_m, so None is
    never a false negative; the checks make a labelling a proof for any graph.
    """
    if len(adj) != m * (m - 1) // 2:
        return None
    stars: dict[int, int] = {}
    labels = []
    for v, row in enumerate(adj):
        if row.bit_count() != 2 * (m - 2):
            return None
        pair = []
        rest = row
        for _ in range(2):
            u = (rest & -rest).bit_length() - 1
            common = row & adj[u]
            w = common & -common  # 0 if none: adj[-1] & 0 is 0, and the size check fails
            inside = adj[w.bit_length() - 1] & common
            star = 1 << v | 1 << u | (w | inside if inside else common ^ w)
            if star.bit_count() != m - 1:
                return None
            pair.append(stars.setdefault(star, len(stars)))
            rest &= ~star
        # two stars of m-1 vertices each covering row + v meet only in v
        if rest or len(stars) > m:
            return None
        labels.append((min(pair), max(pair)))
    # C(m,2) distinct pairs over at most m stars are all the 2-subsets, so a
    # star's number is on m-1 labels, and the star holds those m-1 vertices
    # (each found it) and no other: each row plus v is the set of vertices
    # whose labels meet v's
    return tuple(labels) if len(set(labels)) == len(labels) else None


def triangular_labels(X: SimpleGraph, m: int) -> Optional[tuple[tuple[int, int], ...]]:
    """An isomorphism onto T_m as one pair (i, j), 0 <= i < j < m, per vertex
    of X, adjacent exactly when the pairs meet; None when X is not T_m.

    Decided from star cliques (Whitney 1932; Roussopoulos 1973), which
    identify T_m only for m >= 5: in T_4 a star pair and a matched pair
    both have no common neighbour.
    """
    if m < 5:
        raise PreconditionViolated(f"star cliques identify T_m only for m >= 5, got {m}")
    return _star_labels(_masks_from_table(X._table), m)


def local_params(
    G: SimpleGraph, max_level: int, roots: Optional[Iterable[int]] = None
) -> list[LocalParams]:
    """c_i and a_i over all pairs at distance i, for i = 0..max_level.

    A level where the counts depend on the pair reports UNDEFINED; a level
    with no pairs at all reports VACUOUS.

    Each root u contributes the pairs (u, v) with v within max_level of u.
    By default every vertex is a root. A caller may pass fewer roots,
    provided they meet every orbit of some automorphism group of G: an
    automorphism maps pairs at distance i to pairs at distance i and
    preserves both counts, so the result is the same. For quotients of the
    cube, `quotient.translation_roots` gives such a set. Roots must be ints
    in 0..V-1 (ValueError otherwise).

    The roots run through `bfs_levels` in batches. Each batch becomes a
    V x R array of distances (-1 beyond max_level), and c_i(u, v) and
    a_i(u, v) are counted over v's neighbour-table row at once for all
    pairs; degrees come from the same table.
    """
    import numpy as np

    if max_level < 0:
        raise PreconditionViolated(f"max_level must be non-negative, got {max_level}")
    n = G.n
    if n == 0:
        raise ValueError("graph is empty")
    roots = range(n) if roots is None else [_vertex(n, r, "root") for r in roots]
    table = neighbor_table(G)
    degs = np.count_nonzero(table < n, axis=1)
    regular = bool((degs == degs[0]).all())
    valency: ParamValue = int(degs[0]) if regular else UNDEFINED
    c_vals: list[ParamValue] = [0] + [VACUOUS] * max_level
    a_vals: list[ParamValue] = [0] + [VACUOUS] * max_level
    dist_type = np.int8 if max_level < 127 else np.intp
    count_type = np.uint8 if table.shape[1] < 256 else np.intp
    for batch in _root_batches(roots, n, 8):
        # row n is the pad, at no level
        dist = np.full((n + 1, len(batch)), -1, dtype=dist_type)
        for k, level in enumerate(bfs_levels(table, batch, max_level)):
            raw = level.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(raw, axis=1, count=len(batch), bitorder="little")
            np.copyto(dist[:n], k, where=bits.view(bool))
        here = dist[:n]
        below = here - 1
        c_count = np.zeros(here.shape, dtype=count_type)
        a_count = np.zeros(here.shape, dtype=count_type)
        near = np.empty_like(here)
        hit = np.empty(here.shape, dtype=bool)
        for column in table.T:
            dist.take(column, axis=0, out=near)
            c_count += np.equal(near, below, out=hit)
            a_count += np.equal(near, here, out=hit)
        for i in range(1, max_level + 1):
            at = here == i
            if not at.any():
                break
            for vals, count in ((c_vals, c_count), (a_vals, a_count)):
                found = count[at]
                lo, hi = int(found.min()), int(found.max())
                cur = vals[i]
                if cur is VACUOUS:
                    vals[i] = lo if lo == hi else UNDEFINED
                elif cur is not UNDEFINED and not lo == hi == cur:
                    vals[i] = UNDEFINED
    return [
        LocalParams(i, c_vals[i], a_vals[i], regular, valency)
        for i in range(max_level + 1)
    ]


def is_rectagraph(G: SimpleGraph) -> bool:
    """Connected, triangle-free, and every 2-path in a unique quadrangle."""
    if not G.is_connected():
        return False
    params = local_params(G, 2)
    a1 = params[1].a_value
    c2 = params[2].c_value
    return a1 in (0, VACUOUS) and c2 in (2, VACUOUS)


def distance2_graph(G: SimpleGraph) -> SimpleGraph:
    """Same vertex set; adjacency at distance exactly 2 in G.

    Level 2 of `bfs_levels` from every vertex: by symmetry of distance, row
    v of it holds the vertices at distance 2 from v. Its V x ceil(V/64)
    words are unpacked into the output's table a batch of rows at a time.
    TooLarge when those V^2/8 bytes exceed MASK_BUDGET_BYTES.
    """
    import numpy as np

    n = G.n
    _check_mask_budget(n)
    words = -(-n // 64)
    rows = np.zeros((n, words), dtype=np.uint64)
    for batch in _root_batches(range(n), n, 1):
        levels = list(bfs_levels(G._table, batch, 2))
        if len(levels) == 3:
            first = batch.start >> 6
            rows[:, first : first + levels[2].shape[1]] = levels[2]
    degs = np.bitwise_count(rows).sum(axis=1, dtype=np.intp)
    table = np.full((n, int(degs.max(initial=0))), n, dtype=np.intp)
    raw = rows.astype("<u8", copy=False).view(np.uint8)
    step = max(1, _BATCH_BYTES // max(n, 1))
    for lo in range(0, n, step):
        bits = np.unpackbits(raw[lo : lo + step], axis=1, count=n, bitorder="little")
        near, far = np.nonzero(bits)
        starts = np.cumsum(degs[lo : lo + step]) - degs[lo : lo + step]
        table[lo + near, np.arange(len(far)) - starts[near]] = far
    table.flags.writeable = False
    return object.__new__(SimpleGraph)._fill(table, G.labels)


def bipartite_parts(G: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic 2-coloring of a connected graph; part 0 holds vertex 0.

    The parts are the even and odd levels of one BFS from vertex 0. Raises
    NotBipartite with an odd closed walk: the lowest vertex u of the first
    level d with an inner edge, its lowest neighbour w there, and from each
    the path to 0 by lowest neighbours, 2d + 1 edges in all. ValueError
    for the empty graph.
    """
    import numpy as np

    if G.n == 0:
        raise ValueError("graph is empty")
    table, dist = G._table, _distances(G, 0)
    if (dist[:-1] < 0).any():
        raise NotConnected("bipartite_parts needs a connected graph")
    inner = np.flatnonzero((dist[table] == dist[:-1, None]).any(axis=1))
    if len(inner):
        u = int(inner[dist[inner].argmin()])  # ids ascend, so the lowest of its level
        walks = [[u], [int(table[u][dist[table[u]] == dist[u]][0])]]  # rows ascend
        for below in range(dist[u] - 1, -1, -1):
            for walk in walks:
                walk.append(int(table[walk[-1]][dist[table[walk[-1]]] == below][0]))
        raise NotBipartite(
            f"edge {u}-{walks[1][0]} joins vertices of equal color", odd_walk=walks[0][::-1] + walks[1]
        )
    return tuple(tuple(np.flatnonzero(dist[:-1] % 2 == p).tolist()) for p in (0, 1))


def halved_graphs(G: SimpleGraph) -> tuple[SimpleGraph, SimpleGraph]:
    """The two components of the distance-2 graph of a connected bipartite
    graph, induced on the bipartition; the first one contains vertex 0."""
    part0, part1 = bipartite_parts(G)  # raises ValueError / NotConnected / NotBipartite
    if not part1:
        raise NotBipartite("graph has a single vertex class; no second half")
    d2 = distance2_graph(G)
    return d2.induced(part0), d2.induced(part1)


def bipartite_double(G: SimpleGraph) -> SimpleGraph:
    """Vertex set VG x {0,1}; (u,a) ~ (v,b) iff u ~ v in G and a != b.

    Vertex (u, a) is numbered u + a * G.n.
    """
    import numpy as np

    n = G.n
    inside = G._table < n
    rows_0 = np.where(inside, G._table + n, 2 * n)  # 2n is the double's pad
    rows_1 = np.where(inside, G._table, 2 * n)
    labels = None
    if G.labels is not None:
        labels = [f"{lbl}|0" for lbl in G.labels] + [f"{lbl}|1" for lbl in G.labels]
    return SimpleGraph._from_table(np.concatenate((rows_0, rows_1)), labels)


def is_locally(G: SimpleGraph, target: SimpleGraph) -> bool:
    """True iff every vertex neighborhood induces a graph isomorphic to target.

    One isomorphism search per vertex; for target T_n use
    `is_locally_triangular`, which needs none.
    """
    from .iso_aut import are_isomorphic  # deferred: iso_aut builds on this module

    for v in range(G.n):
        if G.degree(v) != target.n:
            return False
        nbhd = G.induced(G.neighbors(v))
        if are_isomorphic(nbhd, target) is None:
            return False
    return True


def is_locally_triangular(G: SimpleGraph, n: int) -> bool:
    """`is_locally(G, triangular_graph(n))`, decided by `triangular_labels`
    on each neighbourhood (`induced`) instead of an isomorphism search.

    For n <= 4 stars are not told apart from matched pairs, but T_2, T_3 and
    T_4 (K_1, K_3 and the octahedron) are the only graphs on C(n,2) vertices
    that are regular of valency 2(n-2), so those two checks decide it.
    n < 2 raises BadDimension.
    """
    if n < 2:
        raise BadDimension(f"triangular graph needs n >= 2, got {n}")
    size = n * (n - 1) // 2
    if any(d != size for d in G.degrees()):
        return False  # checked first: no neighbourhood of another size is built
    nbhds = (G.induced(G.neighbors(v)) for v in range(G.n))
    if n <= 4:
        return all(h.degrees() == [2 * (n - 2)] * size for h in nbhds)
    return all(triangular_labels(h, n) is not None for h in nbhds)
