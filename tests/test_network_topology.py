"""Tests for the cell-network topology layer.

The contracts under test: the three standard layouts (line/grid/hex) build
the documented neighbour graphs, the validator rejects malformed graphs
(wrong id order, self-loops, asymmetry, out-of-range neighbours), and
topologies are hashable and picklable so they can ride inside scenario
phases across process-pool boundaries.
"""

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import TOPOLOGY_KINDS, Cell, NetworkTopology, build_topology


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #


def test_line_layout_neighbors_are_adjacent_ids():
    topology = NetworkTopology.line(4)
    assert topology.kind == "line"
    assert topology.num_cells == 4
    assert topology.neighbors(0) == (1,)
    assert topology.neighbors(1) == (0, 2)
    assert topology.neighbors(3) == (2,)
    assert topology.position(2) == (2.0, 0.0)


def test_grid_layout_four_neighbor_adjacency():
    topology = NetworkTopology.grid(3, 3)
    assert topology.num_cells == 9
    # Corner, edge and centre of a 3x3 grid (row-major ids).
    assert topology.neighbors(0) == (1, 3)
    assert topology.neighbors(1) == (0, 2, 4)
    assert topology.neighbors(4) == (1, 3, 5, 7)
    assert topology.position(5) == (2.0, 1.0)


def test_hex_layout_interior_cell_has_six_neighbors():
    topology = NetworkTopology.hex_grid(3, 3)
    assert topology.num_cells == 9
    assert len(topology.neighbors(4)) == 6
    # Odd rows are offset by half a cell pitch.
    assert topology.position(3)[0] == pytest.approx(0.5)
    assert topology.position(0)[0] == 0.0


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_build_topology_dispatches_every_kind(kind):
    topology = build_topology(kind, 2, 3)
    assert topology.kind == kind
    assert topology.num_cells == 6


def test_build_topology_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        build_topology("torus", 2, 2)


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_neighbor_graph_is_symmetric_and_sorted(kind):
    topology = build_topology(kind, 4, 5)
    for cell_id in range(topology.num_cells):
        neighbours = topology.neighbors(cell_id)
        assert neighbours == tuple(sorted(neighbours))
        assert cell_id not in neighbours
        for neighbour in neighbours:
            assert cell_id in topology.neighbors(neighbour)


# ---------------------------------------------------------------------- #
# Validation
# ---------------------------------------------------------------------- #


def test_rejects_out_of_order_cell_ids():
    cells = (Cell(1, 0.0, 0.0), Cell(0, 1.0, 0.0))
    with pytest.raises(ConfigurationError):
        NetworkTopology(kind="line", cells=cells, neighbor_ids=((), ()))


def test_rejects_self_loop():
    with pytest.raises(ConfigurationError):
        NetworkTopology(
            kind="line", cells=(Cell(0, 0.0, 0.0),), neighbor_ids=((0,),)
        )


def test_rejects_asymmetric_graph():
    cells = (Cell(0, 0.0, 0.0), Cell(1, 1.0, 0.0))
    with pytest.raises(ConfigurationError):
        NetworkTopology(kind="line", cells=cells, neighbor_ids=((1,), ()))


def test_rejects_out_of_range_neighbor():
    cells = (Cell(0, 0.0, 0.0), Cell(1, 1.0, 0.0))
    with pytest.raises(ConfigurationError):
        NetworkTopology(kind="line", cells=cells, neighbor_ids=((5,), (0,)))


def test_rejects_empty_layout_and_bad_queries():
    with pytest.raises(ConfigurationError):
        NetworkTopology(kind="line", cells=(), neighbor_ids=())
    topology = NetworkTopology.line(2)
    with pytest.raises(ConfigurationError):
        topology.neighbors(2)
    with pytest.raises(ConfigurationError):
        topology.position(-1)
    with pytest.raises(ConfigurationError):
        NetworkTopology.line(0)
    with pytest.raises(ConfigurationError):
        NetworkTopology.grid(0, 3)


# ---------------------------------------------------------------------- #
# Transport
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_topology_pickles_and_hashes(kind):
    topology = build_topology(kind, 3, 3)
    clone = pickle.loads(pickle.dumps(topology))
    assert clone == topology
    assert hash(clone) == hash(topology)
    assert clone.neighbors(4) == topology.neighbors(4)
