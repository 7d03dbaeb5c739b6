import numpy as np
import pytest

from hgc import ConfigError, DomainError, Seed, sample_gaussian


def test_same_seed_same_matrix():
    a = sample_gaussian(3, 3, Seed(42, (1, 2)))
    b = sample_gaussian(3, 3, Seed(42, (1, 2)))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("rows, cols, ks", [(512, 512, (1, 40, 512)), (300, 20, (1, 7, 20))])
def test_narrow_draw_is_a_prefix_of_the_wide_one(rows, cols, ks):
    seed = Seed(5, (2,))
    wide = sample_gaussian(rows, cols, seed)
    for k in ks:
        assert np.array_equal(sample_gaussian(rows, k, seed), wide[:, :k])


def test_different_path_differs():
    a = sample_gaussian(2, 2, Seed(42, (0,)))
    b = sample_gaussian(2, 2, Seed(42, (1,)))
    assert not np.array_equal(a, b)


def test_different_root_differs():
    a = sample_gaussian(2, 2, Seed(1))
    b = sample_gaussian(2, 2, Seed(2))
    assert not np.array_equal(a, b)


def test_moments_of_large_sample():
    x = sample_gaussian(1, 10**6, Seed(7))
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.01


def test_substreams_look_independent():
    # crude independence probe: negligible correlation between streams
    # and no shared prefix
    x = Seed(11, (0,)).generator().standard_normal(20_000)
    y = Seed(11, (1,)).generator().standard_normal(20_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.03
    assert not np.array_equal(x[:100], y[:100])


def test_zero_dimension_rejected():
    with pytest.raises(DomainError):
        sample_gaussian(0, 3, Seed(1))
    with pytest.raises(DomainError):
        sample_gaussian(3, 0, Seed(1))


def test_seed_validation():
    with pytest.raises(ConfigError, match="^seed must be a 64-bit unsigned integer, got -1$"):
        Seed(-1)
    with pytest.raises(ConfigError):
        Seed(2**64)
    with pytest.raises(ConfigError):
        Seed(1, (-2,))


def test_seed_string_form():
    assert str(Seed(7)) == "7"
    assert str(Seed(7, (3, 1))) == "7:3-1"
