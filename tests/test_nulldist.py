import hashlib
import json
import math

import numpy as np
import pytest
from scipy.stats import binom

from phidetect import (
    CacheCorruptionError,
    CalibrationTable,
    DomainError,
    RNG_ID,
    cache_load,
    cache_path,
    cache_store,
    centering,
    centering_offset,
    ensure_tables,
    gumbel_cdf,
    gumbel_quantile,
    mc_null_tables,
)
from phidetect.nulldist import CACHE_VERSION, critical_from_sorted, pvalue_from_sorted

# centering sequence r_n = loglog n + (1/2) logloglog n - (1/2) log(4 pi),
# frozen from a 40-digit evaluation of the formula
CENTERING_REFERENCE = {
    16: -0.23593651776936958,
    17: -0.20381208455872959,
    100: 0.47337882855340762,
    1_000: 0.9965773070951861,
    10_000: 1.3536418804459284,
    100_000: 1.6246678874797523,
    1_000_000: 1.8429710571173447,
    100_000_000: 2.1826349529930266,
}

GUMBEL_QUANTILE_REFERENCE = {
    0.05: 0.2891056607549419,
    0.5: 1.752807281701555,
    0.9: 3.636661688432336,
    0.95: 4.356489610162055,
    0.99: 5.98644358789647,
}


def test_centering_reference_values():
    for n, expected in CENTERING_REFERENCE.items():
        assert centering(n) == pytest.approx(expected, rel=1e-14)


def test_centering_domain():
    with pytest.raises(DomainError):
        centering(15)
    assert centering(16) < centering(17)  # increasing on its domain
    assert centering_offset(15) == 0.0
    assert centering_offset(16) == centering(16)


def test_gumbel_cdf_values():
    assert gumbel_cdf(math.log(4.0)) == pytest.approx(1.0 / math.e, rel=1e-15)
    assert gumbel_cdf(0.0) == pytest.approx(0.01831563888873418, rel=1e-14)
    assert gumbel_cdf(50.0) == pytest.approx(1.0, abs=1e-15)


def test_gumbel_quantile_values_and_roundtrip():
    for p, expected in GUMBEL_QUANTILE_REFERENCE.items():
        assert gumbel_quantile(p) == pytest.approx(expected, rel=1e-14)
    assert gumbel_quantile(0.95) == pytest.approx(4.3565, abs=1e-3)
    for p in (0.01, 0.5, 0.99):
        assert gumbel_cdf(gumbel_quantile(p)) == pytest.approx(p, abs=1e-12)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(DomainError):
            gumbel_quantile(bad)


# --------------------------------------------------------------------------
# Monte-Carlo tables


def test_mc_table_determinism_and_validity():
    t1 = mc_null_tables(50, [2.0], 150, 8833)[0]
    t2 = mc_null_tables(50, [2.0], 150, 8833)[0]
    assert t1.equals(t2)
    np.testing.assert_array_equal(t1.sorted_stats, t2.sorted_stats)
    assert np.all(np.isfinite(t1.sorted_stats))
    assert np.all(np.diff(t1.sorted_stats) >= 0.0)
    # statistic part nonnegative before centering
    assert t1.sorted_stats[0] + centering(50) >= 0.0
    assert t1.rng_id == RNG_ID


def test_mc_table_worker_count_invariance():
    a = mc_null_tables(200, [0.5], 120, 4242, workers=1)[0]
    b = mc_null_tables(200, [0.5], 120, 4242, workers=3)[0]
    np.testing.assert_array_equal(a.sorted_stats, b.sorted_stats)


def test_mc_table_domain_checks():
    with pytest.raises(DomainError):
        mc_null_tables(1, [2.0], 150, 1)
    with pytest.raises(DomainError):
        mc_null_tables(50, [2.0], 99, 1)


def test_mc_tables_batch_matches_singles():
    s_values = [-1.0, 0.0, 2.0]
    batch = mc_null_tables(60, s_values, 130, 777)
    for s, table in zip(s_values, batch):
        single = mc_null_tables(60, [s], 130, 777)[0]
        assert table.equals(single)


def test_small_n_tables_skip_centering():
    t = mc_null_tables(8, [2.0], 100, 5)[0]
    assert np.all(t.sorted_stats >= 0.0)  # raw n*S_n(s), no shift below n=16


def _synthetic_table(values) -> CalibrationTable:
    arr = np.sort(np.asarray(values, dtype=np.float64))
    return CalibrationTable(n=100, s=2.0, reps=arr.size, seed=0,
                            rng_id=RNG_ID, sorted_stats=arr)


def test_mc_critical_rank_arithmetic():
    # reps=19, alpha=0.05: rank ceil(0.95*20) = 19 -> the maximum entry
    with pytest.warns(RuntimeWarning):
        got = critical_from_sorted(_synthetic_table(np.arange(19.0)).sorted_stats, 0.05)
    assert got == 18.0
    # 0..99 at alpha=0.5: rank ceil(0.5*101) = 51 -> the value 50.0
    assert critical_from_sorted(_synthetic_table(np.arange(100.0)).sorted_stats, 0.5) == 50.0


def test_mc_critical_monotone_in_alpha():
    table = _synthetic_table(np.arange(200.0))
    crits = [critical_from_sorted(table.sorted_stats, a) for a in (0.5, 0.2, 0.1, 0.05)]
    assert crits == sorted(crits)


def test_mc_pvalue_rank_extremes():
    table = _synthetic_table(np.arange(100.0))
    assert pvalue_from_sorted(table.sorted_stats, -5.0) == 1.0
    assert pvalue_from_sorted(table.sorted_stats, 1e9) == pytest.approx(1.0 / 101.0)
    # statistic equal to an entry counts that entry (>= convention)
    assert pvalue_from_sorted(table.sorted_stats, 99.0) == pytest.approx(2.0 / 101.0)


def test_reject_iff_pvalue_below_alpha():
    rng = np.random.default_rng(31)
    table = _synthetic_table(rng.normal(size=500))
    for alpha in (0.01, 0.05, 0.25):
        crit = critical_from_sorted(table.sorted_stats, alpha)
        for stat in rng.normal(size=100):
            assert (stat > crit) == (pvalue_from_sorted(table.sorted_stats, stat) <= alpha)


def test_quantile_against_larger_run_order_statistic_ci():
    """q95 of one run falls in the 99% order-statistic CI of a 10x run."""
    small = mc_null_tables(100, [2.0], 400, 1001)[0]
    big = mc_null_tables(100, [2.0], 4000, 2002)[0]
    q95_small = critical_from_sorted(small.sorted_stats, 0.05)
    lo_rank = int(binom.ppf(0.005, 4000, 0.95))
    hi_rank = int(binom.ppf(0.995, 4000, 0.95)) + 1
    lo = big.sorted_stats[max(lo_rank - 1, 0)]
    hi = big.sorted_stats[min(hi_rank - 1, 3999)]
    assert lo <= q95_small <= hi


def test_gap_to_asymptotic_quantile_is_large():
    """The finite-n null quantile sits far above the limit-law quantile.

    This is the documented slow convergence: even at n=1e5 the MC 0.95
    quantile of n*S_n(2) - r_n is several times gumbel_quantile(0.95).
    Reported as a gap, never asserted away.
    """
    table = mc_null_tables(100_000, [2.0], 150, 12345)[0]
    mc_q95 = critical_from_sorted(table.sorted_stats, 0.05)
    asy_q95 = gumbel_quantile(0.95)
    assert mc_q95 > asy_q95 + 5.0


# --------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    path = cache_store(table, tmp_path)
    assert path.exists()
    loaded = cache_load(tmp_path, 40, 1.0, 110, 909)
    assert loaded is not None and loaded.equals(table)
    # byte-identical rewrite (same key -> same bytes)
    before = path.read_bytes()
    cache_store(table, tmp_path)
    assert path.read_bytes() == before


def test_cache_key_mismatch_is_absent(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    cache_store(table, tmp_path)
    assert cache_load(tmp_path, 40, 1.0, 110, 910) is None
    assert cache_load(tmp_path, 41, 1.0, 110, 909) is None
    assert cache_load(tmp_path, 40, 1.5, 110, 909) is None


def test_cache_truncated_file_is_corruption(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    path = cache_store(table, tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheCorruptionError):
        cache_load(tmp_path, 40, 1.0, 110, 909)


def test_cache_wrong_length_is_corruption(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    path = cache_store(table, tmp_path)
    doc = json.loads(path.read_text())
    doc["sorted_stats"] = doc["sorted_stats"][:-3]
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorruptionError):
        cache_load(tmp_path, 40, 1.0, 110, 909)


def test_cache_garbage_is_corruption(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    path = cache_store(table, tmp_path)
    path.write_text("not json at all{{{")
    with pytest.raises(CacheCorruptionError):
        cache_load(tmp_path, 40, 1.0, 110, 909)


def test_cache_embedded_version_mismatch_is_absent(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    path = cache_store(table, tmp_path)
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    assert cache_load(tmp_path, 40, 1.0, 110, 909) is None


def test_ensure_table_builds_then_hits(tmp_path):
    t1 = ensure_tables(tmp_path, 30, [2.0], 100, 5)[2.0]
    path = cache_path(tmp_path, 30, 2.0, 100, 5)
    assert path.exists()
    t2 = ensure_tables(tmp_path, 30, [2.0], 100, 5)[2.0]
    assert t1.equals(t2)


def test_ensure_tables_batch(tmp_path):
    got = ensure_tables(tmp_path, 30, [0.0, 2.0], 100, 5)
    assert set(got) == {0.0, 2.0}
    # second call is pure cache
    again = ensure_tables(tmp_path, 30, [0.0, 2.0], 100, 5)
    for s in (0.0, 2.0):
        assert got[s].equals(again[s])


def test_stats_roundtrip_exactly_through_json(tmp_path):
    table = mc_null_tables(25, [0.5], 100, 321)[0]
    cache_store(table, tmp_path)
    loaded = cache_load(tmp_path, 25, 0.5, 100, 321)
    np.testing.assert_array_equal(loaded.sorted_stats, table.sorted_stats)


# Bytes of cached tables, pinned before any kernel refactor.  A change to the
# kernel, the draws or the file format that alters them must bump
# CACHE_VERSION (and RNG_ID if the draws change) and re-pin these digests.
PINNED_TABLE_SHA256 = {
    (50, -1.0): "2a64c3373d4462bdc2a80d36eae8939603226c06ecb4972c5c514e75a1727ddd",
    (50, 0.0): "eb5792b814c405fe1ee79a0b479ab9d1bf78d390758012e0d1401ab55253fbc6",
    (50, 0.5): "c7bfa9451885ecf73c7a94a13670b07d1e40da47c9bcc7750f1b720f72bcab5c",
    (50, 1.0): "e4ee103ab94ffca4627c9b78ddd2a163ab0ffd1b84eb3bbeeaf207f3ccf00d6e",
    (50, 2.0): "54ec8db476c2c9fb5c2ad430e40943588d5240051b2dbacc78f2b3fecab66ac2",
    (2000, -1.0): "89e42e7f55ec994485f1d4ee7147ac7307d8a6ebbc6f71a31305d65dd8d97319",
    (2000, 0.0): "93674aa77f7965ff524ff223748a76512c0baf61e392bd388f6e63871e7452b5",
    (2000, 0.5): "a253b633cca2a97c98aef10b3a548ffa51be8cc68b374f5ad510b8d930c19a62",
    (2000, 1.0): "49ccb548dd09d03af2ae40fd91271acd1ad53f20825fac2ba56afc96a2b8fdf7",
    (2000, 2.0): "a6bead611860b43174762c6396578e9fe856ee1a877cd5d3074593686ab1c0ab",
}


def test_cached_table_bytes_are_pinned(tmp_path):
    assert (CACHE_VERSION, RNG_ID) == (1, "philox4x64-counter128-v1")
    got = {}
    for n in (50, 2000):
        for table in mc_null_tables(n, (-1.0, 0.0, 0.5, 1.0, 2.0), 200, 20260):
            path = cache_store(table, tmp_path)
            got[(n, table.s)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PINNED_TABLE_SHA256
