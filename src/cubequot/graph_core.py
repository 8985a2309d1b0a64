"""Finite simple graphs and the constructions around distance-2 structure.

Vertices are 0..n-1; adjacency is stored as one bit mask per vertex, which
keeps breadth-first searches and common-neighbor counts cheap at the scales
this package works at (a few thousand vertices). Graphs are immutable after
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
from typing import Iterable, Optional, Sequence, Union

from .errors import BadDimension, NotBipartite, NotConnected, PreconditionViolated


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


UNDEFINED = _Sentinel("UNDEFINED")
VACUOUS = _Sentinel("VACUOUS")

ParamValue = Union[int, _Sentinel]


def bits_of(mask: int):
    """Iterate set bit positions of mask, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class SimpleGraph:
    """Finite undirected graph without loops or multi-edges."""

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None):
        if len(adj) != n:
            raise ValueError("adjacency length differs from vertex count")
        for v, mask in enumerate(adj):
            if mask >> n:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {n}")
            if (mask >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for w in bits_of(adj[v]):
                if not (adj[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        if labels is not None and len(labels) != n:
            raise ValueError("label count differs from vertex count")
        self._fill(n, adj, labels)

    @classmethod
    def _unchecked(
        cls, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None
    ) -> "SimpleGraph":
        """A graph the library derived from a valid one, built without the
        checks of __init__; the symmetry check alone costs O(E * V / 64)."""
        graph = object.__new__(cls)
        graph._fill(n, adj, labels)
        return graph

    def _fill(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)

    def __setattr__(self, *_):
        raise AttributeError("SimpleGraph is immutable")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "SimpleGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, labels)

    def neighbors(self, v: int) -> list[int]:
        return list(bits_of(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted pairs in lexicographic order."""
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            for k in bits_of(m):
                out.append((u, u + 1 + k))
        return out

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return all(d == degs[0] for d in degs)

    def induced(self, vertices: Sequence[int]) -> "SimpleGraph":
        """Subgraph induced on the given vertices, relabeled in sorted order."""
        verts = sorted(vertices)
        index = {v: i for i, v in enumerate(verts)}
        keep = 0
        for v in verts:
            keep |= 1 << v
        adj = []
        for v in verts:
            mask = 0
            for w in bits_of(self.adj[v] & keep):
                mask |= 1 << index[w]
            adj.append(mask)
        labels = None
        if self.labels is not None:
            labels = [self.labels[v] for v in verts]
        return SimpleGraph._unchecked(len(verts), adj, labels)

    def relabeled(self, perm: Sequence[int]) -> "SimpleGraph":
        """Image under a vertex permutation: new index of v is perm[v]."""
        adj = [0] * self.n
        for v in range(self.n):
            mask = 0
            for w in bits_of(self.adj[v]):
                mask |= 1 << perm[w]
            adj[perm[v]] = mask
        labels = None
        if self.labels is not None:
            labels = [""] * self.n
            for v in range(self.n):
                labels[perm[v]] = self.labels[v]
        return SimpleGraph(self.n, adj, labels)

    def bfs_level_masks(self, start: int, max_level: Optional[int] = None) -> list[int]:
        """Masks of the distance spheres around start, index = distance.

        This is the package's one BFS kernel. With max_level set, the search
        stops after that level, so the list has at most max_level + 1 masks;
        a shorter list means the spheres beyond it are empty.
        """
        levels = [1 << start]
        seen = 1 << start
        frontier = 1 << start
        adj = self.adj
        while max_level is None or len(levels) <= max_level:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= adj[v]
            nxt &= ~seen
            if not nxt:
                break
            levels.append(nxt)
            seen |= nxt
            frontier = nxt
        return levels

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return sum(m.bit_count() for m in self.bfs_level_masks(0)) == self.n

    def connected_components(self) -> list[list[int]]:
        seen = 0
        comps = []
        for v in range(self.n):
            if (seen >> v) & 1:
                continue
            mask = 0
            for lvl in self.bfs_level_masks(v):
                mask |= lvl
            seen |= mask
            comps.append(list(bits_of(mask)))
        return comps

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"n_vertices": self.n, "edges": [list(e) for e in self.edges()]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    def to_json(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\\n"`,
        written directly: the json encoder runs in pure Python under indent."""
        edges = [f"    [\n      {u},\n      {v}\n    ]" for u, v in self.edges()]
        parts = ['{\n  "edges": ', _json_block(edges), ",\n"]
        if self.labels is not None:
            labels = ["    " + json.dumps(lbl) for lbl in self.labels]
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
        for v in range(self.n):
            if self.labels is not None:
                lines.append(f'  {v} [label="{self.labels[v]}"];')
            else:
                lines.append(f"  {v};")
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.adj == other.adj
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"


def _json_block(items: list[str]) -> str:
    """A list at indent level 1 of `json.dumps(..., indent=2)`, items pre-rendered."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


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


def local_params(
    G: SimpleGraph, max_level: int, roots: Optional[Iterable[int]] = None
) -> list[LocalParams]:
    """c_i and a_i over all pairs at distance i, for i = 0..max_level.

    A level where the counts depend on the pair reports UNDEFINED; a level
    with no pairs at all reports VACUOUS.

    Each root u runs one BFS truncated at max_level and contributes the
    pairs (u, v). By default every vertex is a root. A caller may pass
    fewer roots, provided they meet every orbit of some automorphism group
    of G: an automorphism maps pairs at distance i to pairs at distance i
    and preserves both counts, so the result is the same. For quotients of
    the cube, `quotient.translation_roots` gives such a set.
    """
    if max_level < 0:
        raise PreconditionViolated(f"max_level must be non-negative, got {max_level}")
    if G.n == 0:
        raise ValueError("graph is empty")
    degs = G.degrees()
    regular = all(d == degs[0] for d in degs)
    valency: ParamValue = degs[0] if regular else UNDEFINED
    c_vals: list[ParamValue] = [VACUOUS] * (max_level + 1)
    a_vals: list[ParamValue] = [VACUOUS] * (max_level + 1)
    c_vals[0] = 0
    a_vals[0] = 0
    adj = G.adj
    for u in range(G.n) if roots is None else roots:
        levels = G.bfs_level_masks(u, max_level)
        for i in range(1, len(levels)):
            below = levels[i - 1]
            here = levels[i]
            for v in bits_of(here):
                c = (adj[v] & below).bit_count()
                a = (adj[v] & here).bit_count()
                for vals, x in ((c_vals, c), (a_vals, a)):
                    cur = vals[i]
                    if cur is VACUOUS:
                        vals[i] = x
                    elif cur is not UNDEFINED and cur != x:
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
    """Same vertex set; adjacency at distance exactly 2 in G."""
    adj = []
    for v in range(G.n):
        mask = 0
        for w in bits_of(G.adj[v]):
            mask |= G.adj[w]
        mask &= ~G.adj[v]
        mask &= ~(1 << v)
        adj.append(mask)
    return SimpleGraph._unchecked(G.n, adj, G.labels)


def bipartite_parts(G: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic 2-coloring of a connected graph; part 0 holds vertex 0.

    Raises NotBipartite with an odd closed walk as witness.
    """
    if not G.is_connected():
        raise NotConnected("bipartite_parts needs a connected graph")
    color = [-1] * G.n
    parent = [-1] * G.n
    color[0] = 0
    queue = [0]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for w in bits_of(G.adj[u]):
            if color[w] == -1:
                color[w] = 1 - color[u]
                parent[w] = u
                queue.append(w)
            elif color[w] == color[u]:
                walk_u = []
                x = u
                while x != -1:
                    walk_u.append(x)
                    x = parent[x]
                walk_w = []
                x = w
                while x != -1:
                    walk_w.append(x)
                    x = parent[x]
                witness = walk_u[::-1] + walk_w
                raise NotBipartite(
                    f"edge {u}-{w} joins vertices of equal color", odd_walk=witness
                )
    part0 = tuple(v for v in range(G.n) if color[v] == 0)
    part1 = tuple(v for v in range(G.n) if color[v] == 1)
    return part0, part1


def halved_graphs(G: SimpleGraph) -> tuple[SimpleGraph, SimpleGraph]:
    """The two components of the distance-2 graph of a connected bipartite
    graph, induced on the bipartition; the first one contains vertex 0."""
    part0, part1 = bipartite_parts(G)  # raises NotConnected / NotBipartite
    if not part1:
        raise NotBipartite("graph has a single vertex class; no second half")
    d2 = distance2_graph(G)
    return d2.induced(part0), d2.induced(part1)


def bipartite_double(G: SimpleGraph) -> SimpleGraph:
    """Vertex set VG x {0,1}; (u,a) ~ (v,b) iff u ~ v in G and a != b.

    Vertex (u, a) is numbered u + a * G.n.
    """
    n = G.n
    adj = [0] * (2 * n)
    for u in range(n):
        adj[u] = G.adj[u] << n
        adj[u + n] = G.adj[u]
    labels = None
    if G.labels is not None:
        labels = [f"{lbl}|0" for lbl in G.labels] + [f"{lbl}|1" for lbl in G.labels]
    return SimpleGraph._unchecked(2 * n, adj, labels)


def is_locally(G: SimpleGraph, target: SimpleGraph) -> bool:
    """True iff every vertex neighborhood induces a graph isomorphic to target."""
    from .iso_aut import are_isomorphic  # deferred: iso_aut builds on this module

    for v in range(G.n):
        if G.degree(v) != target.n:
            return False
        nbhd = G.induced(G.neighbors(v))
        if are_isomorphic(nbhd, target) is None:
            return False
    return True
