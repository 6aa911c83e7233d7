import numpy as np
import pytest
from scipy import stats

from phidetect import RNG_ID, replicate_rng, stable_seed, uniform_open
from phidetect._rand import _replicate_rngs


def test_rng_id_pins_the_scheme():
    assert RNG_ID == "philox4x64-counter128-v1"


def test_replicate_streams_deterministic():
    a = replicate_rng(123, 7).random(100)
    b = replicate_rng(123, 7).random(100)
    np.testing.assert_array_equal(a, b)


def test_replicate_streams_do_not_overlap():
    # the substream is a property of (seed, replicate) alone, not of how much
    # any other replicate has consumed
    replicate_rng(5, 0).random(100_000)
    fresh = replicate_rng(5, 1).random(50)
    np.testing.assert_array_equal(fresh, replicate_rng(5, 1).random(50))
    firsts = [replicate_rng(5, j).random() for j in range(50)]
    assert len(set(firsts)) == 50


def _draws(rng) -> list:
    # binomials first, as every mixture replicate starts: inversion (n*p < 30),
    # BTPE (n*p >= 30) and a p > 1/2 (drawn through 1 - p); then 64-bit, 32-bit
    # and double draws in odd counts: each leaves part of a Philox block (four
    # 64-bit words) or half a word behind for the next replicate
    return [rng.binomial(10, 0.3), rng.binomial(10_000, 0.01), rng.binomial(1000, 0.7),
            rng.integers(0, 7, size=3, dtype=np.int32), rng.random(5),
            uniform_open(rng, 7), rng.integers(1, 1 << 53, size=1)]


def test_reused_replicate_stream_draws_what_replicate_rng_draws():
    # 2^64 is the first replicate whose counter block needs word 3
    assert replicate_rng(3, 2**64).bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 1]
    reps = [0, 1, 2**64 - 1, 2**64, 1, 0, 2**64]
    seen = 0
    for rep, rng in zip(reps, _replicate_rngs(3, reps)):
        for got, want in zip(_draws(rng), _draws(replicate_rng(3, rep))):
            np.testing.assert_array_equal(got, want)
        seen += 1
    assert seen == len(reps)


def test_replicate_rng_reads_a_numpy_integer_index_as_its_value():
    # numpy shifts wrap, so np.int64(3) << 128 was 0: replicate 0's stream
    for rep in (3, 2**63 - 1):
        want = replicate_rng(5, rep).random(4)
        np.testing.assert_array_equal(replicate_rng(5, np.int64(rep)).random(4), want)
        np.testing.assert_array_equal(replicate_rng(5, np.uint64(rep)).random(4), want)
    with pytest.raises(TypeError):
        replicate_rng(5, 3.0)


def test_replicate_index_validation():
    with pytest.raises(ValueError):
        replicate_rng(1, -1)


def test_uniform_open_is_strictly_interior():
    u = uniform_open(replicate_rng(9, 0), 200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # draws live on the dyadic grid k / 2^53
    k = u * float(1 << 53)
    np.testing.assert_array_equal(k, np.round(k))


def test_chunked_uniform_open_is_one_integers_call():
    # values and the stream after them, across chunk edges and the one-chunk sizes
    for size in (0, 1, 8191, 8192, 8193, 3 * 8192 + 5, 100_000):
        got, ref = replicate_rng(21, size), replicate_rng(21, size)
        u = uniform_open(got, size)
        k = ref.integers(1, 1 << 53, size=size, dtype=np.int64)
        assert u.tobytes() == (k * 2.0**-53).tobytes(), size
        for after in (lambda r: r.random(3), lambda r: r.integers(0, 7, size=5, dtype=np.int32),
                      lambda r: r.integers(1, 1 << 53, size=9)):
            np.testing.assert_array_equal(after(got), after(ref))


def test_uniform_open_is_uniform():
    u = uniform_open(replicate_rng(10, 0), 20_000)
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_stable_seed_is_63_bit_and_frozen():
    for parts in ((0, "calibration-tables"), (1,), ("x", 2.5, 3)):
        v = stable_seed(*parts)
        assert 0 <= v < 1 << 63
        assert v == stable_seed(*parts)
    # frozen values: changing the hashing scheme would silently invalidate
    # every cached calibration table, so lock it down
    assert stable_seed(0, "calibration-tables") == 1439588969303034885
    assert stable_seed(42, "normal", 0.6, 0.5, 2.0, 100_000) == 728768595043116504


def test_stable_seed_reads_numpy_scalars_as_python_numbers():
    # repr(np.float64(0.5)) is 'np.float64(0.5)' under numpy 2; json cannot encode np.int64
    assert stable_seed(np.float64(0.5)) == stable_seed(0.5)
    assert stable_seed(np.int64(3)) == stable_seed(3)
    assert stable_seed(np.int32(42), "normal", np.float32(0.5)) == stable_seed(42, "normal", 0.5)


def test_stable_seed_distinguishes_types_and_order():
    assert len({stable_seed(1), stable_seed(1.0), stable_seed("1")}) == 3
    assert stable_seed("a", "b") != stable_seed("b", "a")
    assert stable_seed(3, 4) != stable_seed(34)
