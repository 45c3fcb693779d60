"""Tests for the Chimera topology and clique minor embedding."""

import networkx as nx
import pytest

from repro.annealing.embedding import (
    Embedding,
    embed_ising,
    find_clique_embedding,
    resolve_chain_breaks,
    unembed_sampleset,
)
from repro.annealing.topology import ChimeraCoordinates, chimera_graph
from repro.exceptions import ConfigurationError, EmbeddingError
from tests.qubo_fixtures import random_ising


class TestChimeraCoordinates:
    def test_qubit_count(self):
        assert ChimeraCoordinates(16, 16, 4).num_qubits == 2048
        assert ChimeraCoordinates(2, 2, 4).num_qubits == 32

    def test_linear_index_round_trip(self):
        coords = ChimeraCoordinates(3, 4, 4)
        for index in range(coords.num_qubits):
            assert coords.linear_index(*coords.coordinates(index)) == index

    def test_out_of_range(self):
        coords = ChimeraCoordinates(2, 2, 4)
        with pytest.raises(ConfigurationError):
            coords.linear_index(2, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            coords.coordinates(100)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            ChimeraCoordinates(0, 2)


class TestChimeraGraph:
    def test_node_and_edge_counts_c2(self):
        graph = chimera_graph(2, 2, 4)
        assert graph.number_of_nodes() == 32
        # Each of the 4 cells has 16 internal couplers; the two vertical and
        # two horizontal adjacent cell pairs contribute 4 couplers each.
        expected_edges = 4 * 16 + 2 * 4 + 2 * 4
        assert graph.number_of_edges() == expected_edges

    def test_2000q_size(self):
        graph = chimera_graph(16)
        assert graph.number_of_nodes() == 2048

    def test_degrees_bounded(self):
        graph = chimera_graph(3)
        assert max(dict(graph.degree).values()) <= 6

    def test_connected(self):
        assert nx.is_connected(chimera_graph(3))

    def test_bipartite_within_cell(self):
        graph = chimera_graph(1, 1, 4)
        coords = ChimeraCoordinates(1, 1, 4)
        vertical = [coords.linear_index(0, 0, 0, k) for k in range(4)]
        for qubit_a in vertical:
            for qubit_b in vertical:
                assert not graph.has_edge(qubit_a, qubit_b)


class TestCliqueEmbedding:
    @pytest.mark.parametrize("num_variables", [2, 4, 7, 8, 12, 16])
    def test_valid_embedding(self, num_variables):
        embedding = find_clique_embedding(num_variables)
        embedding.validate()
        assert embedding.num_logical_variables == num_variables

    @pytest.mark.parametrize("num_variables", [4, 9, 13])
    def test_all_pairs_connected(self, num_variables):
        embedding = find_clique_embedding(num_variables)
        for i in range(num_variables):
            for j in range(i + 1, num_variables):
                assert embedding.coupler_between(i, j), f"no coupler between {i} and {j}"

    def test_chain_length(self):
        embedding = find_clique_embedding(12)  # needs a 3x3 lattice
        assert embedding.max_chain_length == 4

    def test_too_small_lattice_rejected(self):
        with pytest.raises(EmbeddingError):
            find_clique_embedding(20, lattice_size=2)

    def test_invalid_size(self):
        with pytest.raises(EmbeddingError):
            find_clique_embedding(0)

    def test_validate_catches_overlap(self):
        graph = chimera_graph(1)
        bad = Embedding(chains=((0, 4), (0, 5)), target_graph=graph)
        with pytest.raises(EmbeddingError):
            bad.validate()

    def test_validate_catches_disconnected_chain(self):
        graph = chimera_graph(1)
        # Qubits 0 and 1 are both on the vertical shore of the same cell: no edge.
        bad = Embedding(chains=((0, 1),), target_graph=graph)
        with pytest.raises(EmbeddingError):
            bad.validate()


class TestEmbedIsing:
    def test_field_shares_sum_to_logical_field(self, rng):
        ising = random_ising(6, rng=rng)
        embedding = find_clique_embedding(6)
        fields, _, _ = embed_ising(ising, embedding)
        for logical, chain in enumerate(embedding.chains):
            total = sum(fields[qubit] for qubit in chain)
            assert total == pytest.approx(ising.fields[logical])

    def test_coupling_shares_sum_to_logical_coupling(self, rng):
        ising = random_ising(5, rng=rng)
        embedding = find_clique_embedding(5)
        _, couplings, strength = embed_ising(ising, embedding)
        for i in range(5):
            for j in range(i + 1, 5):
                available = embedding.coupler_between(i, j)
                total = sum(
                    couplings.get((min(a, b), max(a, b)), 0.0) for a, b in available
                )
                assert total == pytest.approx(ising.couplings[i, j])

    def test_chain_strength_default(self, rng):
        ising = random_ising(4, rng=rng)
        embedding = find_clique_embedding(4)
        _, _, strength = embed_ising(ising, embedding)
        assert strength == pytest.approx(1.5 * ising.max_abs_coefficient())

    def test_size_mismatch(self, rng):
        ising = random_ising(4, rng=rng)
        with pytest.raises(EmbeddingError):
            embed_ising(ising, find_clique_embedding(5))

    def test_invalid_chain_strength(self, rng):
        ising = random_ising(4, rng=rng)
        with pytest.raises(EmbeddingError):
            embed_ising(ising, find_clique_embedding(4), chain_strength=-1.0)


class TestUnembedding:
    def test_resolve_chain_breaks_majority(self):
        spins = {0: 1, 1: 1, 2: -1}
        value, broken = resolve_chain_breaks(spins, (0, 1, 2))
        assert value == 1
        assert broken

    def test_resolve_unbroken(self):
        value, broken = resolve_chain_breaks({0: -1, 1: -1}, (0, 1))
        assert value == -1
        assert not broken

    def test_resolve_tie_random_but_valid(self):
        value, broken = resolve_chain_breaks({0: 1, 1: -1}, (0, 1), rng=0)
        assert value in (-1, 1)
        assert broken

    def test_unembed_energies_use_logical_model(self, rng):
        ising = random_ising(3, rng=rng)
        embedding = find_clique_embedding(3)
        spins = {qubit: 1 for chain in embedding.chains for qubit in chain}
        sampleset = unembed_sampleset([spins], embedding, ising)
        assert sampleset.num_reads == 1
        assert sampleset.first.energy == pytest.approx(ising.energy([1, 1, 1]))
        assert sampleset.first.chain_break_fraction == 0.0

    def test_unembed_counts_broken_chains(self, rng):
        ising = random_ising(2, rng=rng)
        embedding = find_clique_embedding(2)
        spins = {qubit: 1 for chain in embedding.chains for qubit in chain}
        first_chain = embedding.chains[0]
        spins[first_chain[0]] = -1
        if len(first_chain) > 2:
            sampleset = unembed_sampleset([spins], embedding, ising)
            assert sampleset.first.chain_break_fraction == pytest.approx(0.5)
