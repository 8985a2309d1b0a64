"""Schreier-Sims orders and membership against sympy's implementation;
orbit minima against networkx connected components."""

import math
import random

import networkx as nx
import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from cubequot.cube_symmetry import _monomial_perm, ambient_order, standard_generators
from cubequot.perm_groups import (
    PermutationGroup,
    compose_perms,
    group_from_generators,
    invert_perm,
    orbit_minima,
)


def random_perm(degree, rng):
    p = list(range(degree))
    rng.shuffle(p)
    return tuple(p)


def sympy_group(degree, gens):
    return SymGroup([SymPerm(list(g), size=degree) for g in gens])


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
        assert (p in G) == S.contains(SymPerm(list(p), size=degree))
    # products of generators and their inverses always belong
    for _ in range(20):
        p = tuple(range(degree))
        for _ in range(rng.randrange(1, 6)):
            g = rng.choice(gens)
            p = compose_perms(p, g if rng.randrange(2) else invert_perm(g))
        assert p in G


def test_elements_enumerate_the_group():
    gens = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]
    G = group_from_generators(5, gens)
    elems = set(G.elements())
    assert len(elems) == G.order() == 6
    assert all(p in G for p in elems)


@pytest.mark.parametrize("n,even", [(3, False), (4, False), (5, False), (4, True), (5, True)])
def test_cube_ambient_orders_match_sympy(n, even):
    # Aut(Q_n) embedded in S_2n by signed coordinates; even ambient halves it
    gens = [_monomial_perm(g) for g in standard_generators(n, even=even)]
    G = group_from_generators(2 * n, gens)
    assert G.order() == ambient_order(n, even=even) == sympy_group(2 * n, gens).order()
    assert ambient_order(n) == 2**n * math.factorial(n)


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
