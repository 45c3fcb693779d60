"""An independent oracle for the gated SVMC sweep draws.

``tests/kernel_spec.py`` draws through the production helper
``kernels._svmc_draw_blocks`` itself, so the kernel equivalence tests
cannot see a fault in the draw order.  The oracle here is a plain
per-child loop — the child's accept uniforms, then its normals, then its
mix uniforms, one of each for every gate-passing position — and the
helper must reproduce its buffers byte for byte and leave every child's
bit generator in the same state, sweep after sweep.
"""

import copy

import numpy as np
import pytest

from repro.annealing import kernels
from repro.utils.rng import spawn_rngs

#: A ragged batch with an empty instance, a one-rotor instance and padding.
SIZES = [5, 0, 9, 1, 3]

#: Activities of consecutive sweeps: the SVMC residual floor, half-open
#: gates, the largest activity below full, and full activity (every
#: position passes).
ACTIVITIES = [0.02, 0.5, float(np.nextafter(1.0, 0.0)), 1.0, 0.3]


def _oracle(children, sizes, reads, width, activity):
    """One sweep's draws, child by child: uniforms, normals, mixes."""
    gate = activity * (1.0 + 2.0**-20)
    uniforms, passing, normals, mixes = [], [], [], []
    for size, child in zip(sizes, children):
        if size == 0:
            uniforms.append(np.zeros((0, reads)))
            passing.append(np.zeros((0, reads), dtype=bool))
            continue
        block = child.random((size, reads))
        below = block < gate
        drawn = int(np.count_nonzero(below))
        normals.append(child.standard_normal(drawn) * width + 0.0)
        mixes.append(child.random(drawn))
        uniforms.append(block)
        passing.append(below)
    return uniforms, passing, np.concatenate(normals), np.concatenate(mixes)


@pytest.mark.parametrize("reads", [1, 7])
@pytest.mark.parametrize("seed", [3, 11])
def test_helper_matches_per_child_oracle(reads, seed):
    sizes = np.array(SIZES)
    batch, max_size = len(SIZES), max(SIZES)
    shape = (batch, max_size, reads)
    width = 0.6
    children = spawn_rngs(seed, batch)
    replays = copy.deepcopy(children)
    # Padding rows hold an accept uniform no gate lets through, and the
    # gate test starts with nothing passing.
    uniforms = np.full(shape, np.inf)
    passing = np.zeros(shape, dtype=bool)
    normals, mixes = np.empty(uniforms.size), np.empty(uniforms.size)
    for activity in ACTIVITIES:
        normals.fill(7.0)
        mixes.fill(7.0)
        positions = kernels._svmc_draw_blocks(
            children, sizes, width, activity, uniforms, passing, normals, mixes
        )
        # Entry j of the packed draws belongs to the j-th passing position.
        assert np.array_equal(positions, np.flatnonzero(passing))
        count = positions.size
        expected = _oracle(replays, SIZES, reads, width, activity)
        for index, size in enumerate(SIZES):
            assert uniforms[index, :size].tobytes() == expected[0][index].tobytes()
            assert np.array_equal(passing[index, :size], expected[1][index])
            assert not np.any(passing[index, size:])
            assert np.all(uniforms[index, size:] == np.inf)
        assert count == expected[2].size == expected[3].size
        assert normals[:count].tobytes() == expected[2].tobytes()
        assert mixes[:count].tobytes() == expected[3].tobytes()
        # The buffers beyond the packed draws are not written.
        assert np.all(normals[count:] == 7.0) and np.all(mixes[count:] == 7.0)
        for child, replay in zip(children, replays):
            assert child.bit_generator.state == replay.bit_generator.state
    # Full activity passes every real position, the floor only a few.
    assert 0 < count < sizes.sum() * reads


def test_empty_instance_draws_nothing():
    children = spawn_rngs(5, 2)
    untouched = copy.deepcopy(children[1].bit_generator.state)
    shape = (2, 4, 3)
    uniforms = np.full(shape, np.inf)
    passing = np.zeros(shape, dtype=bool)
    normals, mixes = np.empty(uniforms.size), np.empty(uniforms.size)
    kernels._svmc_draw_blocks(
        children, np.array([4, 0]), 0.5, 0.5, uniforms, passing, normals, mixes
    )
    assert children[1].bit_generator.state == untouched
    assert not np.any(passing[1])
