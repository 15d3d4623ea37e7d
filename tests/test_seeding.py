"""The draw helpers against numpy's Generator.choice: the same index, and the
generator left in the same state, seed by seed."""

import numpy as np
import pytest

from grounddesk.seeding import cumulative_weights, weighted_index

SEEDS = range(20_000)

# The weights the data stages draw with: the default extra-attribute and
# filler-attribute weights, the relation weights, and weights holding a zero,
# as floats and as ints.
WEIGHTS = [(0.45, 0.35, 0.20), (0.2, 0.5, 0.3), (1.0,) * 7, (0.45, 0.0, 0.55), (1, 0, 2),
           (0.0, 1.0, 0.0)]


@pytest.mark.parametrize("weights", WEIGHTS, ids=str)
def test_weighted_index_is_choice_with_p(weights):
    p = np.asarray(weights) / np.sum(weights)
    cdf = cumulative_weights(tuple(weights))
    for seed in SEEDS:
        numpy_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert weighted_index(rng, cdf) == int(numpy_rng.choice(len(weights), p=p)), seed
        assert rng.random() == numpy_rng.random(), seed


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_integers_is_scalar_choice(n):
    for seed in SEEDS:
        numpy_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert int(rng.integers(0, n)) == int(numpy_rng.choice(n)), seed
        assert rng.random() == numpy_rng.random(), seed


def test_a_zero_weight_is_never_drawn():
    cdf = cumulative_weights((0.45, 0.0, 0.55))
    rng = np.random.default_rng(0)
    assert 1 not in {weighted_index(rng, cdf) for _ in range(5000)}


@pytest.mark.parametrize("weights", [(0.0, 0.0), (-1.0, 2.0), (float("inf"), 1.0),
                                     (float("nan"), 1.0)], ids=str)
def test_weights_that_choice_rejects_raise(weights):
    with pytest.raises(ValueError, match="non-negative"):
        cumulative_weights(weights)
