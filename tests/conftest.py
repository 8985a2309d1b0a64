import pytest

from cubequot import (
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    SimpleGraph,
    generate_group,
    parse_group_text,
)
from cubequot.iso_aut import _automorphism_search

QUATERNION_FILE = """n=8
x=11110000 perm=(1 5)(2 6)(3 7)(4 8)
x=10100101 perm=(1 2)(3 4)(5 6)(7 8)
"""


def cube_graph(n: int) -> SimpleGraph:
    edges = [
        (v, v ^ (1 << i))
        for v in range(1 << n)
        for i in range(n)
        if v < v ^ (1 << i)
    ]
    return SimpleGraph.from_edges(1 << n, edges)


def brute_element_distance(g: CubeAutomorphism) -> int:
    """Independent oracle: scan all 2^n vertices."""
    return min(
        bin(v ^ g.act_bits(v)).count("1") for v in range(1 << g.n)
    )


def is_translation(g: CubeAutomorphism) -> bool:
    return g.perm.is_identity()


def same_group_as(K: CubeGroup, other: CubeGroup) -> bool:
    """Equal orders, and every generator of other lies in K."""
    same = K.n == other.n and K.order == other.order
    return same and all(g in K for g in other.generators)


def automorphism_generators(G: SimpleGraph) -> list[tuple[int, ...]]:
    """Generators of Aut(G), each verified to preserve adjacency."""
    return _automorphism_search(G)[1]


def folded_cube_group(n: int) -> CubeGroup:
    return generate_group([CubeAutomorphism.translation_by(BitVector.all_ones(n))])


@pytest.fixture(scope="session")
def quaternion_group():
    return parse_group_text(QUATERNION_FILE)


@pytest.fixture(scope="session")
def folded8():
    return folded_cube_group(8)
