"""Schreier-Sims orders and membership against sympy's implementation and
against a chain repaired by full bottom-up rebuilds; orbit minima against
networkx connected components."""

import functools
import itertools
import math
import random
from collections import deque

import networkx as nx
import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from cubequot.cube_symmetry import (
    _monomial_perm,
    ambient_order,
    generate_group,
    standard_generators,
)
from cubequot.graph_core import halved_graphs
from cubequot.perm_groups import (
    PermutationGroup,
    compose_perms,
    identity_perm,
    invert_perm,
    orbit_minima,
)
from cubequot.quotient import build_quotient
from cubequot.verify import _not_vt_group

from conftest import automorphism_generators, folded_cube_group


def random_perm(degree, rng):
    p = list(range(degree))
    rng.shuffle(p)
    return tuple(p)


def sympy_group(degree, gens):
    return SymGroup([SymPerm(list(g), size=degree) for g in gens])


def group_from_generators(degree, gens):
    group = PermutationGroup(degree)
    for g in gens:
        group.add_generator(g)
    return group


def chain_contains(group, p):
    """p is in the group iff it sifts through the stabilizer chain to the identity."""
    residue, _ = group._sift_from(tuple(p), 0)
    return residue is None


def chain_elements(group, limit):
    """Every element of the group as a product of transversal elements, one per level."""
    if group.order() > limit:
        raise ValueError(f"group order {group.order()} exceeds limit {limit}")
    levels = [t.values() for t in reversed(group._transversals)]
    for ts in itertools.product(*levels):
        yield functools.reduce(compose_perms, ts, identity_perm(group.degree))


def random_generator_sets():
    rng = random.Random(7)
    cases = []
    for degree in (4, 5, 6, 7, 8, 9, 10):
        for count in (1, 2, 3):
            cases.append((degree, [random_perm(degree, rng) for _ in range(count)]))
    # structured groups: a product of two cycles, and an imprimitive wreath
    cases.append((8, [(1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)]))
    cases.append((6, [(1, 0, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1)]))
    return cases


@pytest.mark.parametrize("degree,gens", random_generator_sets())
def test_order_matches_sympy(degree, gens):
    G = group_from_generators(degree, gens)
    assert G.order() == sympy_group(degree, gens).order()


@pytest.mark.parametrize("degree,gens", random_generator_sets()[:12])
def test_membership_matches_sympy(degree, gens):
    G = group_from_generators(degree, gens)
    S = sympy_group(degree, gens)
    rng = random.Random(degree * 31 + len(gens))
    for _ in range(40):
        p = random_perm(degree, rng)
        assert chain_contains(G, p) == S.contains(SymPerm(list(p), size=degree))
    # products of generators and their inverses always belong
    for _ in range(20):
        p = tuple(range(degree))
        for _ in range(rng.randrange(1, 6)):
            g = rng.choice(gens)
            p = compose_perms(p, g if rng.randrange(2) else invert_perm(g))
        assert chain_contains(G, p)


def test_elements_enumerate_the_group():
    gens = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]
    G = group_from_generators(5, gens)
    elems = set(chain_elements(G, 10))
    assert len(elems) == G.order() == 6
    assert all(chain_contains(G, p) for p in elems)


@pytest.mark.parametrize("n,even", [(3, False), (4, False), (5, False), (4, True), (5, True)])
def test_cube_ambient_orders_match_sympy(n, even):
    # Aut(Q_n) embedded in S_2n by signed coordinates; even ambient halves it
    gens = [_monomial_perm(g) for g in standard_generators(n, even=even)]
    G = group_from_generators(2 * n, gens)
    assert G.order() == ambient_order(n, even=even) == sympy_group(2 * n, gens).order()
    assert ambient_order(n) == 2**n * math.factorial(n)


class BottomUpChain:
    """Reference Schreier-Sims: after every growing insertion, rebuild every
    level's transversal from scratch and re-sift every Schreier generator,
    deepest level first, climbing back to a level whenever a residue lands
    there. New base points lie on the residue's longest cycle."""

    def __init__(self, degree, gens=()):
        self.degree = degree
        self.base = []
        self.gens = []  # strong generators per level
        self.transversals = []
        self.inverses = []
        self.identity = identity_perm(degree)
        for g in gens:
            self.add_generator(g)

    def order(self):
        return math.prod(len(t) for t in self.transversals)

    def __contains__(self, p):
        return self.sift_from(tuple(p), 0)[0] is None

    def add_generator(self, p):
        residue, level = self.sift_from(tuple(p), 0)
        if residue is None:
            return False
        self.insert(residue, level)
        self.rebuild()
        return True

    def sift_from(self, p, start):
        for i in range(start, len(self.base)):
            t_inv = self.inverses[i].get(p[self.base[i]])
            if t_inv is None:
                return p, i
            p = compose_perms(p, t_inv)
        return (None if p == self.identity else p), len(self.base)

    def insert(self, residue, level):
        if level == len(self.base):
            cycles = []
            seen = set()
            for i in range(self.degree):
                if i in seen or residue[i] == i:
                    continue
                j, length = i, 0
                while j not in seen:
                    seen.add(j)
                    length += 1
                    j = residue[j]
                cycles.append((-length, i))
            self.base.append(min(cycles)[1])
            self.gens.append([])
            self.transversals.append({})
            self.inverses.append({})
        self.gens[level].append(residue)

    def level_gens(self, level):
        return [g for gens in self.gens[level:] for g in gens]

    def rebuild(self):
        i = len(self.base) - 1
        while i >= 0:
            self.orbit_transversal(i)
            trans, inverses = self.transversals[i], self.inverses[i]
            offender = -1
            for a, ta in list(trans.items()):
                for g in self.level_gens(i):
                    schreier = compose_perms(compose_perms(ta, g), inverses[g[a]])
                    residue, drop = self.sift_from(schreier, i + 1)
                    if residue is not None:
                        self.insert(residue, drop)
                        offender = drop
                        break
                if offender >= 0:
                    break
            i = offender if offender >= 0 else i - 1

    def orbit_transversal(self, level):
        gens = self.level_gens(level)
        b = self.base[level]
        trans = {b: self.identity}
        frontier = deque([b])
        while frontier:
            a = frontier.popleft()
            for g in gens:
                if g[a] not in trans:
                    trans[g[a]] = compose_perms(trans[a], g)
                    frontier.append(g[a])
        self.transversals[level] = trans
        self.inverses[level] = {a: invert_perm(t) for a, t in trans.items()}


def rebuild_oracle_cases():
    rng = random.Random(23)
    cases = [pytest.param(d, g, id=f"random-{d}-{len(g)}") for d, g in random_generator_sets()]
    for n in range(3, 9):
        for even in (False, True):
            gens = [_monomial_perm(g) for g in standard_generators(n, even=even)]
            cases.append(pytest.param(2 * n, gens, id=f"cube-{n}-{'even' if even else 'full'}"))
    for degree in (12, 14, 16, 18, 20):
        pair = [random_perm(degree, rng) for _ in range(2)]
        cases.append(pytest.param(degree, pair, id=f"pair-{degree}"))
    # every element of Aut(Q_4) in list order, as _GroupBuilder adds them
    elements = [_monomial_perm(g) for g in generate_group(standard_generators(4)).elements]
    cases.append(pytest.param(8, elements, id="cube-4-elements"))
    return cases


def membership_probes(degree, gens, rng, count=30):
    """Words in the generators (members), words times a random transposition
    (members or not) and random permutations (almost always not)."""
    probes = []
    for _ in range(count):
        p = identity_perm(degree)
        for _ in range(rng.randrange(1, 8)):
            g = rng.choice(gens)
            p = compose_perms(p, g if rng.randrange(2) else invert_perm(g))
        probes.append(p)
        a, b = rng.sample(range(degree), 2)
        swap = list(range(degree))
        swap[a], swap[b] = b, a
        probes.append(compose_perms(p, swap))
        probes.append(random_perm(degree, rng))
    return probes


def assert_matches_rebuild(degree, gens):
    G, oracle = PermutationGroup(degree), BottomUpChain(degree)
    assert [G.add_generator(g) for g in gens] == [oracle.add_generator(g) for g in gens]
    assert G.order() == oracle.order()
    rng = random.Random(degree)
    for p in membership_probes(degree, list(gens), rng):
        assert chain_contains(G, p) == (p in oracle)


@pytest.mark.parametrize("degree,gens", rebuild_oracle_cases())
def test_order_and_membership_match_bottom_up_rebuild(degree, gens):
    assert_matches_rebuild(degree, gens)


@pytest.mark.parametrize(
    "K,degree",
    [
        pytest.param(folded_cube_group(8), 64, id="folded8-half"),
        pytest.param(_not_vt_group(10), 256, id="lt-not-vt-half"),
    ],
)
def test_half_automorphism_groups_match_bottom_up_rebuild(K, degree):
    half, _ = halved_graphs(build_quotient(K).graph)
    gens = automorphism_generators(half)
    assert half.n == degree
    assert_matches_rebuild(degree, gens)
    assert group_from_generators(degree, gens).order() == sympy_group(degree, gens).order()


def test_add_generator_reports_growth():
    G = PermutationGroup(4)
    assert G.add_generator((1, 0, 2, 3))
    assert not G.add_generator((1, 0, 2, 3))
    assert G.add_generator((0, 1, 3, 2))
    assert not G.add_generator((1, 0, 3, 2))
    assert G.order() == 4


def components_oracle(degree, gens):
    """Least point of each point's connected component in the generator graph."""
    graph = nx.Graph()
    graph.add_nodes_from(range(degree))
    graph.add_edges_from((v, g[v]) for g in gens for v in range(degree))
    rep = [0] * degree
    for component in nx.connected_components(graph):
        low = min(component)
        for v in component:
            rep[v] = low
    return rep


def orbit_minima_cases():
    rng = random.Random(11)
    cycle = list(range(1000))
    rng.shuffle(cycle)
    one_cycle = [0] * 1000
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        one_cycle[a] = b
    cases = [(7, [tuple(range(7))]), (1000, [tuple(one_cycle)])]
    for degree in (1, 2, 9, 64, 300):
        for count in (1, 2, 4):
            cases.append((degree, [random_perm(degree, rng) for _ in range(count)]))
    # sparse generators: many small orbits, fixed points and long chains
    for degree, count in ((50, 3), (400, 2), (400, 6)):
        gens = []
        for _ in range(count):
            p = list(range(degree))
            for _ in range(degree // 10):
                a, b = rng.randrange(degree), rng.randrange(degree)
                p[a], p[b] = p[b], p[a]
            gens.append(tuple(p))
        cases.append((degree, gens))
    return cases


@pytest.mark.parametrize("degree,gens", orbit_minima_cases())
def test_orbit_minima_match_connected_components(degree, gens):
    assert orbit_minima(gens).tolist() == components_oracle(degree, gens)


def test_orbit_minima_of_identity_and_single_cycle():
    assert orbit_minima([tuple(range(5))]).tolist() == list(range(5))
    cycle = tuple(range(1, 1000)) + (0,)
    assert orbit_minima([cycle]).tolist() == [0] * 1000
