import itertools
import random

import pytest
from hypothesis import settings

from matchiso import Graph, graph_from_edges

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def vertex_mask(vertices) -> int:
    """The mask of a set of vertex labels, bit v - 1 for vertex v: the
    vertex-set type of faces and engine."""
    acc = 0
    for v in vertices:
        acc |= 1 << (v - 1)
    return acc


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(1, n + 1), 2))


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    pairs = [uv for uv in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return graph_from_edges(n, pairs)


def random_graph_with_pm(n: int, p: float, rng: random.Random) -> Graph:
    """Random graph guaranteed a perfect matching: plant 1-2, 3-4, ..."""
    planted = {(v, v + 1) for v in range(1, n, 2)}
    pairs = planted | {
        uv for uv in itertools.combinations(range(1, n + 1), 2) if rng.random() < p
    }
    return graph_from_edges(n, pairs)


@pytest.fixture
def c4() -> Graph:
    # Lexicographic ids: e1=(1,2) e2=(1,4) e3=(2,3) e4=(3,4).
    return cycle_graph(4)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def triangle() -> Graph:
    return cycle_graph(3)


@pytest.fixture
def star() -> Graph:
    return graph_from_edges(4, [(1, 2), (1, 3), (1, 4)])


@pytest.fixture
def fig_four_vertex() -> Graph:
    # 4 vertices, 5 edges: both diagonals of a square through vertex pairs
    # (1,2),(1,3),(1,4),(2,4),(3,4); already in lexicographic order.
    return graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])


@pytest.fixture
def prism() -> Graph:
    # Two triangles {1,2,3}, {4,5,6} plus the connector matching 1-4 2-5 3-6.
    return graph_from_edges(
        6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)]
    )


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)


@pytest.fixture
def k6() -> Graph:
    return complete_graph(6)


@pytest.fixture
def cube() -> Graph:
    return graph_from_edges(
        8,
        [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
         (1, 5), (2, 6), (3, 7), (4, 8)],
    )


@pytest.fixture
def petersen() -> Graph:
    return graph_from_edges(
        10,
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
         (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
         (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)],
    )
