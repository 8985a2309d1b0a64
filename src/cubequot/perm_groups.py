"""Permutation groups on points 0..degree-1: exact orders and orbits.

Permutations are tuples p of length degree with p[i] = image of i.
The group is stored as a base and strong generating set built by a
deterministic Schreier-Sims procedure, so orders are exact integers of
arbitrary size.

`orbit_minima` is the library's one routine for the orbits of a group
given by generators; quotients, translation roots and automorphism
searches all read their orbits from it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Sequence


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(map(q.__getitem__, p))


def invert_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def orbit_minima(tables):
    """rep[v], the least point of the orbit of v, for every point v.

    Row k of `tables` (a 2-D array or a sequence of equal-length sequences)
    is generator k as the map v -> g_k(v) on the points 0..N-1. Each round
    lowers rep[v] to rep[g_k(v)] where that is smaller, for every k, then
    jumps rep to rep[rep]; rep[v] stays in the orbit of v throughout. At a
    round that changes nothing, rep[v] <= rep[g(v)] for every generator g,
    and g^-1 is a power of g, so rep is constant on each orbit and equals
    its minimum. Rounds are bounded by the orbit diameter plus one.
    """
    import numpy as np

    tables = np.asarray(tables, dtype=np.int64)
    rep = np.arange(tables.shape[1], dtype=np.int64)
    while True:
        new = rep
        for g in tables:
            new = np.minimum(new, new[g])
        new = new[new]
        if np.array_equal(new, rep):
            return rep
        rep = new


class PermutationGroup:
    """Group generated incrementally; membership and order via BSGS.

    A strong generator lives at the deepest level whose base prefix it
    fixes pointwise; the stabilizer H^(i) is generated by the strong
    generators at levels >= i. After every growing insertion the chain
    condition is restored bottom-up (deepest level first), so orbits that
    grow at shallow levels are re-examined.

    New base points are chosen greedily: the moved point lying on the
    longest cycle of the offending residue (smallest such point on ties).
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self._gens: list[list[tuple[int, ...]]] = []
        # _transversals[i]: orbit point -> element of H^(i) mapping base[i] to it;
        # _inverses[i] holds the inverses of those elements under the same keys.
        self._transversals: list[dict[int, tuple[int, ...]]] = []
        self._inverses: list[dict[int, tuple[int, ...]]] = []
        self._identity = identity_perm(degree)
        self.generators: list[tuple[int, ...]] = []

    # -- basic queries ------------------------------------------------

    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def __contains__(self, p: Sequence[int]) -> bool:
        residue, _ = self._sift_from(tuple(p), 0)
        return residue is None

    def elements(self, limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """Enumerate all elements as transversal products (cross-check tool)."""
        if limit is not None and self.order() > limit:
            raise ValueError(f"group order {self.order()} exceeds limit {limit}")

        def rec(level: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if level < 0:
                yield acc
                return
            for t in self._transversals[level].values():
                yield from rec(level - 1, compose_perms(acc, t))

        yield from rec(len(self.base) - 1, self._identity)

    # -- construction -------------------------------------------------

    def add_generator(self, p: Sequence[int]) -> bool:
        """Add a permutation; returns True if the group grew."""
        p = tuple(p)
        if len(p) != self.degree:
            raise ValueError("degree mismatch")
        residue, level = self._sift_from(p, 0)
        if residue is None:
            return False
        self.generators.append(p)
        self._insert(residue, level)
        self._rebuild()
        return True

    def _sift_from(self, p: tuple[int, ...], start: int):
        """Strip p through chain levels >= start; (None, _) means membership."""
        for i in range(start, len(self.base)):
            t_inv = self._inverses[i].get(p[self.base[i]])
            if t_inv is None:
                return p, i
            p = compose_perms(p, t_inv)
        if p == self._identity:
            return None, len(self.base)
        return p, len(self.base)

    def _new_base_point(self, residue: tuple[int, ...]) -> int:
        best_point = -1
        best_len = 0
        seen = [False] * self.degree
        for i in range(self.degree):
            if seen[i] or residue[i] == i:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                length += 1
                j = residue[j]
            if length > best_len:
                best_len = length
                best_point = i
        return best_point

    def _insert(self, residue: tuple[int, ...], level: int) -> None:
        if level == len(self.base):
            self.base.append(self._new_base_point(residue))
            self._gens.append([])
            self._transversals.append({})
            self._inverses.append({})
        self._gens[level].append(residue)

    def _level_gens(self, level: int) -> list[tuple[int, ...]]:
        return [g for lvl in range(level, len(self._gens)) for g in self._gens[lvl]]

    def _rebuild(self) -> None:
        """Restore the chain condition bottom-up over all levels."""
        i = len(self.base) - 1
        while i >= 0:
            self._orbit_transversal(i)
            trans = self._transversals[i]
            inverses = self._inverses[i]
            gens = self._level_gens(i)
            offender_level = -1
            for a in list(trans):
                ta = trans[a]
                for g in gens:
                    schreier = compose_perms(compose_perms(ta, g), inverses[g[a]])
                    residue, drop = self._sift_from(schreier, i + 1)
                    if residue is not None:
                        self._insert(residue, drop)
                        offender_level = drop
                        break
                if offender_level >= 0:
                    break
            if offender_level >= 0:
                i = offender_level  # repair the deeper level first, then climb
            else:
                i -= 1

    def _orbit_transversal(self, level: int) -> None:
        b = self.base[level]
        gens = self._level_gens(level)
        trans = {b: self._identity}
        frontier = deque([b])
        while frontier:
            a = frontier.popleft()
            ta = trans[a]
            for g in gens:
                c = g[a]
                if c not in trans:
                    trans[c] = compose_perms(ta, g)
                    frontier.append(c)
        self._transversals[level] = trans
        self._inverses[level] = {a: invert_perm(t) for a, t in trans.items()}


def group_from_generators(degree: int, gens: Sequence[Sequence[int]]) -> PermutationGroup:
    group = PermutationGroup(degree)
    for g in gens:
        group.add_generator(g)
    return group
