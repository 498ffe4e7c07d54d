import numpy as np
import pytest

from kwbandit import NoiseModel, replication_stream
from kwbandit.rng import StreamChunk


def test_none_noise_is_exact(bowl):
    rng = replication_stream(0, 0)
    assert bowl.evaluate((1.0,)) + NoiseModel.none().draw(rng) == -1.0
    # and consumes no stream values
    assert rng.integers(0, 100) == replication_stream(0, 0).integers(0, 100)


def test_gaussian_mean_matches_objective(bowl):
    rng = replication_stream(123, 0)
    noise = NoiseModel.gaussian(1.0)
    n = 100_000
    draws = bowl.evaluate((0.5,)) + noise.draw(rng, n)
    tolerance = 3.0 / np.sqrt(n)
    assert abs(draws.mean() - bowl.evaluate((0.5,))) < tolerance


def test_gaussian_variance_within_bound(bowl):
    rng = replication_stream(7, 0)
    noise = NoiseModel.gaussian(0.5)
    n = 100_000
    draws = noise.draw(rng, n)
    sample_var = draws.var(ddof=1)
    # standard error of the variance of a gaussian sample
    se = noise.sigma2 * np.sqrt(2.0 / (n - 1))
    assert sample_var <= noise.sigma2 + 3 * se


def test_uniform_bounded_support(bowl):
    rng = replication_stream(9, 0)
    noise = NoiseModel.uniform_bounded(1.0 / 3.0)
    assert noise.support_half_width == pytest.approx(1.0, abs=1e-15)
    fx = bowl.evaluate((0.5,))
    draws = fx + np.array([noise.draw(rng) for _ in range(2000)])
    assert np.all(draws >= fx - 1.0) and np.all(draws <= fx + 1.0)
    assert draws.var(ddof=1) <= 1.0 / 3.0 + 3 * (1 / 3) * np.sqrt(2 / 1999)


def test_uniform_bounded_mean_zero():
    rng = replication_stream(11, 0)
    noise = NoiseModel.uniform_bounded(0.25)
    draws = noise.draw(rng, 100_000)
    assert abs(draws.mean()) < 3 * np.sqrt(0.25 / 100_000)


def test_sigma_tilde2_is_4_d_sigma2():
    noise = NoiseModel.gaussian(0.7)
    assert noise.sigma_tilde2(1) == pytest.approx(2.8)
    assert noise.sigma_tilde2(3) == pytest.approx(8.4)


def test_invalid_models_rejected():
    with pytest.raises(ValueError, match="unknown noise kind"):
        NoiseModel("laplace", 1.0)
    with pytest.raises(ValueError, match="requires sigma2 = 0"):
        NoiseModel("none", 1.0)
    with pytest.raises(ValueError, match="sigma2 > 0"):
        NoiseModel.uniform_bounded(0.0)
    with pytest.raises(ValueError, match=">= 0"):
        NoiseModel.gaussian(-1.0)


def test_block_draws_match_sequential_draws():
    # the batching engine relies on this stream property
    for noise in (NoiseModel.gaussian(2.0), NoiseModel.uniform_bounded(0.7)):
        block = noise.draw(replication_stream(5, 3), 8)
        rng = replication_stream(5, 3)
        single = np.array([noise.draw(rng) for _ in range(8)])
        assert np.array_equal(block, single)


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "noise",
    [NoiseModel.gaussian(2.0), NoiseModel.gaussian(0.0), NoiseModel.uniform_bounded(0.7), NoiseModel.none()],
    ids=["gaussian", "gaussian-zero-variance", "uniform-bounded", "none"],
)
def test_fill_equals_draw_bit_for_bit(noise):
    # 1,000 rows of 3 values per stream, split 7 + 300 + 693 and written
    # into the rows of a strided slice buf[:, :k] of a larger block; the
    # sign bits catch a -0.0 where draw gives 0.0 (sigma2 = 0)
    reps, width, split = 4, 3, (7, 300, 693)
    fill_rngs, draw_rngs = list(StreamChunk(5, reps)), list(StreamChunk(5, reps))
    for k in split:
        buf = np.full((reps, k + 2, width), np.nan)
        noise.fill(fill_rngs, buf[:, :k])
        for r, rng in enumerate(draw_rngs):
            assert_same_bits(buf[r, :k], noise.draw(rng, (k, width)))
        assert np.isnan(buf[:, k:]).all()
    # both paths leave every stream at the same place
    for a, b in zip(fill_rngs, draw_rngs):
        assert a.integers(0, 2**62) == b.integers(0, 2**62)


@pytest.mark.parametrize("noise", [NoiseModel.gaussian(1.0), NoiseModel.uniform_bounded(0.5)], ids=["gaussian", "uniform"])
@pytest.mark.parametrize("streams", [2, 4], ids=["too-few", "too-many"])
def test_fill_needs_one_stream_per_row(noise, streams):
    # a row without a stream would keep whatever the block held before
    with pytest.raises(ValueError):
        noise.fill(list(StreamChunk(5, streams)), np.zeros((3, 2)))
