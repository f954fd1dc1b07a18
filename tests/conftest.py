import pytest

from lagwalk import generate_case_graph
from lagwalk.graph import (
    DEFAULT_GRAPH_SEED,
    DEFAULT_N_CASES,
    DEFAULT_N_NODES,
    DEFAULT_P_CASE_CASE,
    DEFAULT_P_CASE_NONCASE,
    DEFAULT_P_NONCASE_NONCASE,
)
from helpers import complete_graph, cycle_graph, figure_walk_graph, path_graph


@pytest.fixture(scope="session")
def study_graph():
    """The frozen core-periphery demo graph (100 nodes, 20 cases)."""
    return generate_case_graph(DEFAULT_N_NODES, DEFAULT_N_CASES, DEFAULT_P_CASE_CASE,
                               DEFAULT_P_CASE_NONCASE, DEFAULT_P_NONCASE_NONCASE,
                               DEFAULT_GRAPH_SEED)


@pytest.fixture()
def path5():
    return path_graph(5)


@pytest.fixture()
def k3():
    return complete_graph(3, values=[1.0, 1.0, 1.0])


@pytest.fixture()
def c4():
    return cycle_graph(4)


@pytest.fixture()
def figure_graph():
    return figure_walk_graph()
