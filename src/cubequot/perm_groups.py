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

import math
from typing import Sequence


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
    """Group generated incrementally; its order via BSGS.

    A strong generator lives at the deepest level whose base prefix it
    fixes pointwise; the stabilizer H^(i) is generated by the strong
    generators at levels >= i. Each level queues the (orbit point a, strong
    generator g) pairs it has yet to check, deepest level first (Seress
    2003, ch. 4): a new point c = a^g gets t_c = t_a g, else the Schreier
    generator t_a g t_c^-1 is sifted once through the deeper, complete
    levels, and a residue becomes a strong generator. A checked pair stays
    checked, as deeper levels only grow and no t_a is replaced. A new
    level's base point is the least point its first strong generator moves.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self._gens: list[list[tuple[int, ...]]] = []
        # _transversals[i]: orbit point -> element of H^(i) mapping base[i] to it;
        # _inverses[i] holds the inverses of those elements under the same keys.
        self._transversals: list[dict[int, tuple[int, ...]]] = []
        self._inverses: list[dict[int, tuple[int, ...]]] = []
        self._pending: list[list[tuple[int, tuple[int, ...]]]] = []
        self._identity = identity_perm(degree)

    # -- basic queries ------------------------------------------------

    def order(self) -> int:
        return math.prod(map(len, self._transversals))

    # -- construction -------------------------------------------------

    def add_generator(self, p: Sequence[int]) -> bool:
        """Add a permutation; returns True if the group grew."""
        p = tuple(p)
        if len(p) != self.degree:
            raise ValueError("degree mismatch")
        residue, level = self._sift_from(p, 0)
        if residue is None:
            return False
        self._add_strong(residue, level)
        pending = self._pending
        level = len(pending) - 1
        while level >= 0:
            if not pending[level]:
                level -= 1
                continue
            a, g = pending[level].pop()
            trans = self._transversals[level]
            ag = compose_perms(trans[a], g)
            c = g[a]
            if c not in trans:
                trans[c] = ag
                self._inverses[level][c] = invert_perm(ag)
                pending[level].extend((c, h) for gens in self._gens[level:] for h in gens)
                continue
            residue, drop = self._sift_from(compose_perms(ag, self._inverses[level][c]), level + 1)
            if residue is not None:
                self._add_strong(residue, drop)
                level = drop
        return True

    def _sift_from(self, p: tuple[int, ...], start: int):
        """Strip p through chain levels >= start; (None, _) means membership."""
        for i in range(start, len(self.base)):
            t_inv = self._inverses[i].get(p[self.base[i]])
            if t_inv is None:
                return p, i
            p = compose_perms(p, t_inv)
        return (None if p == self._identity else p), len(self.base)

    def _add_strong(self, g: tuple[int, ...], level: int) -> None:
        """Make g a strong generator at `level` and queue it against every
        orbit point of the levels whose stabilizer it joins."""
        if level == len(self.base):
            b = next(i for i, j in enumerate(g) if i != j)
            self.base.append(b)
            self._gens.append([])
            self._transversals.append({b: self._identity})
            self._inverses.append({b: self._identity})
            self._pending.append([])
        self._gens[level].append(g)
        for i in range(level + 1):
            self._pending[i].extend((a, g) for a in self._transversals[i])
