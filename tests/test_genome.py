from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswarm.genome import (
    MAX_CONNECTIONS,
    MAX_HIDDEN,
    WEIGHT_BOUND,
    CompiledNetwork,
    Connection,
    Genome,
    MutationParams,
    genome_from_text,
    genome_to_text,
    load_genome,
    mutate,
    polynomial_mutation,
    random_genome,
    save_genome,
)

ZERO_RATES = MutationParams(
    node_add_rate=0.0,
    node_delete_rate=0.0,
    conn_add_rate=0.0,
    conn_delete_rate=0.0,
    conn_modify_rate=0.0,
    weight_rate=0.0,
)


class _MinimalRng:
    """Stub generator that always takes the lowest draw."""

    def integers(self, low, high=None, size=None):
        return low if size is None else np.full(size, low)

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def uniform(self, low, high, size=None):
        return low if size is None else np.full(size, low)

    def choice(self, n, size=None, replace=True, p=None):
        return np.arange(size if size is not None else 1)


class TestRandomGenome:
    def test_samples_satisfy_invariants(self, rng):
        for _ in range(300):
            g = random_genome(rng)
            g.validate()
            assert 0 <= g.hidden <= MAX_HIDDEN
            assert len(g.connections) <= MAX_CONNECTIONS

    def test_minimum_draws_give_empty_genome(self):
        g = random_genome(_MinimalRng())
        assert g.hidden == 0
        assert g.connections == ()

    def test_weight_mean_near_zero(self, rng):
        total = 0.0
        count = 0
        for _ in range(10_000):
            g = random_genome(rng)
            total += sum(c.weight for c in g.connections)
            count += len(g.connections)
        assert abs(total / count) < 0.05


class TestPolynomialMutation:
    @given(
        x=st.floats(-2.0, 2.0),
        eta=st.floats(1.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_hold_for_any_input(self, x, eta, seed):
        w = polynomial_mutation(x, np.random.default_rng(seed), eta=eta)
        assert -WEIGHT_BOUND <= w <= WEIGHT_BOUND

    def test_respects_bounds_at_edges(self, rng):
        for _ in range(2000):
            assert polynomial_mutation(2.0, rng) <= 2.0
            assert polynomial_mutation(-2.0, rng) >= -2.0

    def test_respects_bounds_in_interior(self, rng):
        for _ in range(2000):
            w = polynomial_mutation(float(rng.uniform(-2, 2)), rng)
            assert -WEIGHT_BOUND <= w <= WEIGHT_BOUND

    def test_small_perturbations_at_high_eta(self, rng):
        # eta 15 keeps most perturbations local
        moves = [abs(polynomial_mutation(0.0, rng, eta=15.0)) for _ in range(2000)]
        assert np.median(moves) < 0.2 * WEIGHT_BOUND


class TestMutate:
    def test_zero_rates_identity(self, rng):
        for _ in range(50):
            parent = random_genome(rng)
            child = mutate(parent, ZERO_RATES, rng)
            assert child == parent

    def test_parent_unmodified(self, rng):
        parent = random_genome(rng)
        snapshot = (parent.hidden, tuple(parent.connections))
        mutate(parent, MutationParams(), rng)
        assert (parent.hidden, tuple(parent.connections)) == snapshot

    def test_node_addition_frequency(self, rng):
        # parent with no hidden nodes: deletion is a no-op, so the hidden
        # count increments exactly when the addition operator fired
        parent = Genome(0, (Connection(0, 16, 0.5),))
        additions = sum(
            mutate(parent, MutationParams(), rng).hidden for _ in range(10_000)
        )
        assert additions / 10_000 == pytest.approx(0.10, abs=0.01)

    def test_invariants_over_chained_mutations(self, rng):
        g = random_genome(rng)
        params = MutationParams()
        for _ in range(100_000):
            g = mutate(g, params, rng)
            assert 0 <= g.hidden <= MAX_HIDDEN
            assert len(g.connections) <= MAX_CONNECTIONS
            pairs = {(c.source, c.target) for c in g.connections}
            assert len(pairs) == len(g.connections)
        g.validate()

    def test_weight_mutation_respects_bounds(self, rng):
        params = MutationParams(
            node_add_rate=0.0,
            node_delete_rate=0.0,
            conn_add_rate=0.0,
            conn_delete_rate=0.0,
            conn_modify_rate=0.0,
            weight_rate=1.0,
        )
        g = Genome(0, (Connection(0, 16, 2.0), Connection(1, 17, -2.0)))
        for _ in range(1000):
            child = mutate(g, params, rng)
            for c in child.connections:
                assert -2.0 <= c.weight <= 2.0

    def test_connection_added_to_the_last_free_pair(self):
        """With 35 of a hidden-0 genome's 36 legal pairs used, the 64
        rejection draws often all miss and `mutate` enumerates the free
        pairs; either way the child gains the one free pair."""
        pairs = [(source, target) for source in range(18) for target in (16, 17)]
        free = pairs.pop(21)
        parent = Genome(0, tuple(Connection(s, t, 0.5) for s, t in pairs))
        params = replace(ZERO_RATES, conn_add_rate=1.0)
        for seed in range(40):
            child = mutate(parent, params, np.random.default_rng(seed))
            assert child.connections[:-1] == parent.connections
            assert (child.connections[-1].source, child.connections[-1].target) == free

    def test_node_deletion_renumbers(self):
        # force a deletion: rates picked so only deletion fires
        params = MutationParams(
            node_add_rate=0.0,
            node_delete_rate=1.0,
            conn_add_rate=0.0,
            conn_delete_rate=0.0,
            conn_modify_rate=0.0,
            weight_rate=0.0,
        )
        g = Genome(2, (Connection(0, 18, 1.0), Connection(18, 19, 0.5), Connection(0, 19, -1.0)))
        child = mutate(g, params, np.random.default_rng(0))
        child.validate()
        assert child.hidden == 1


def bias_inputs(rng=None, robots=1):
    """(1, robots, 16) controller inputs: uniform in [-1, 1] (zero without
    `rng`), with the bias entry at 1."""
    inputs = np.zeros((1, robots, 16)) if rng is None else rng.uniform(-1, 1, (1, robots, 16))
    inputs[..., 15] = 1.0
    return inputs


class TestForward:
    def test_no_connections_outputs_zero(self):
        net = CompiledNetwork([Genome()])
        state = net.step(net.initial_state(1), np.zeros((1, 1, 16)))
        assert np.array_equal(net.outputs(state), np.zeros((1, 1, 2)))

    def test_single_connection(self):
        net = CompiledNetwork([Genome(0, (Connection(0, 16, 2.0),))])
        inputs = bias_inputs()
        inputs[..., 0] = 1.0
        out = net.outputs(net.step(net.initial_state(1), inputs))[0, 0]
        assert out[0] == pytest.approx(np.tanh(2.0), abs=1e-15)
        assert out[1] == 0.0

    def test_purity(self, rng):
        net = CompiledNetwork([random_genome(rng)])
        state = net.initial_state(1)
        inputs = bias_inputs(rng)
        assert np.array_equal(net.step(state, inputs), net.step(state, inputs))

    def test_recurrence_uses_previous_activation(self):
        # self-loop on output 0 plus bias drive
        net = CompiledNetwork([Genome(0, (Connection(15, 16, 1.0), Connection(16, 16, 1.0)))])
        state = net.step(net.initial_state(1), bias_inputs())
        assert state[0, 0, 0] == pytest.approx(np.tanh(1.0))
        state = net.step(state, bias_inputs())
        assert state[0, 0, 0] == pytest.approx(np.tanh(1.0 + np.tanh(1.0)))

    def test_outputs_bounded(self, rng):
        for _ in range(20):
            net = CompiledNetwork([random_genome(rng)])
            state = net.initial_state(3)
            for _ in range(10):
                state = net.step(state, bias_inputs(rng, robots=3))
                assert np.all(np.abs(net.outputs(state)) < 1.0)

    def test_batch_matches_single(self, rng):
        # one robot's update does not depend on the other robots in the call
        net = CompiledNetwork([random_genome(rng)])
        inputs = bias_inputs(rng, robots=4)
        batch = net.step(net.initial_state(4), inputs)
        for i in range(4):
            alone = net.step(net.initial_state(1), inputs[:, i : i + 1])
            assert alone[0, 0] == pytest.approx(batch[0, i], abs=1e-15)

    def test_input_length_checked(self):
        net = CompiledNetwork([Genome()])
        with pytest.raises(ValueError):
            net.step(net.initial_state(1), np.zeros((1, 1, 15)))


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        for i in range(25):
            g = random_genome(rng)
            path = tmp_path / f"g{i}.txt"
            save_genome(g, path)
            loaded = load_genome(path)
            assert loaded == g

    def test_text_format(self):
        g = Genome(1, (Connection(0, 18, 0.1), Connection(18, 16, -1.9375)))
        text = genome_to_text(g)
        lines = text.strip().splitlines()
        assert lines[0] == "1"
        assert lines[1].split() == ["0", "18", "0.10000000000000001"]
        assert genome_from_text(text) == g

    def test_invalid_text_rejected(self):
        with pytest.raises(ValueError):
            genome_from_text("")
        with pytest.raises(ValueError):
            genome_from_text("1\n0 0 0.5\n")  # input node as target
        with pytest.raises(ValueError):
            genome_from_text("0\n0 16 nan\n")  # NaN weight
