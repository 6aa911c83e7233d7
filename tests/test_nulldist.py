import dataclasses
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
    SortedPValueSample,
    cache_load,
    cache_path,
    cache_store,
    centering,
    centering_offset,
    ensure_tables,
    gumbel_quantile,
    mc_null_tables,
    replicate_rng,
    sup_statistic_values,
    uniform_open,
)
import phidetect.nulldist as nulldist
from phidetect.nulldist import CACHE_VERSION, critical_from_sorted, pvalue_from_sorted


def _same_table(a: CalibrationTable, b: CalibrationTable) -> bool:
    """Equal recipe and byte-equal statistics."""
    return ((a.n, a.s, a.reps, a.seed, a.rng_id) == (b.n, b.s, b.reps, b.seed, b.rng_id)
            and np.array_equal(a.sorted_stats, b.sorted_stats))


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


def test_gumbel_quantile_values_and_roundtrip():
    for p, expected in GUMBEL_QUANTILE_REFERENCE.items():
        assert gumbel_quantile(p) == pytest.approx(expected, rel=1e-14)
    assert gumbel_quantile(0.95) == pytest.approx(4.3565, abs=1e-3)
    for p in (0.01, 0.5, 0.99):
        assert math.exp(-4.0 * math.exp(-gumbel_quantile(p))) == pytest.approx(p, abs=1e-12)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(DomainError):
            gumbel_quantile(bad)


# --------------------------------------------------------------------------
# Monte-Carlo tables


def test_mc_table_determinism_and_validity():
    t1 = mc_null_tables(50, [2.0], 150, 8833)[0]
    t2 = mc_null_tables(50, [2.0], 150, 8833)[0]
    assert _same_table(t1, t2)
    np.testing.assert_array_equal(t1.sorted_stats, t2.sorted_stats)
    assert np.all(np.isfinite(t1.sorted_stats))
    assert np.all(np.diff(t1.sorted_stats) >= 0.0)
    # statistic part nonnegative before centering
    assert t1.sorted_stats[0] + centering(50) >= 0.0
    assert t1.rng_id == RNG_ID


def test_mc_table_worker_count_invariance():
    for reps in (120, 101):  # 101: the last chunk is short, at every worker count
        a = mc_null_tables(200, [0.5], reps, 4242, workers=1)[0]
        b = mc_null_tables(200, [0.5], reps, 4242, workers=3)[0]
        np.testing.assert_array_equal(a.sorted_stats, b.sorted_stats)


def test_tables_do_not_depend_on_how_replicates_are_stacked():
    # 101 reps: chunks of 26 (workers=1) or 13 (workers=2), each a stack of up to
    # 16 rows at n=1000 and one stack at smaller n; the reference takes one replicate
    # at a time from its own fresh generator
    s_values = [-1.0, 0.0, 0.5, 1.0, 2.0]
    for n in (2, 3, 50, 1000):
        rn = centering_offset(n)
        want = np.sort(np.array([
            n * sup_statistic_values(
                SortedPValueSample.from_values(uniform_open(replicate_rng(606, rep), n)), s_values
            ) - rn
            for rep in range(101)
        ]), axis=0)
        serial = mc_null_tables(n, s_values, 101, 606, workers=1)
        for j, table in enumerate(serial):
            assert np.array_equal(table.sorted_stats, want[:, j]), (n, table.s)
        for a, b in zip(serial, mc_null_tables(n, s_values, 101, 606, workers=2)):
            assert _same_table(a, b), (n, a.s)


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
        assert _same_table(table, single)


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
    assert loaded is not None and _same_table(loaded, table)
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


def test_cache_hand_edited_sorted_entry_is_corruption(tmp_path):
    table = mc_null_tables(40, [1.0], 110, 909)[0]
    path = cache_store(table, tmp_path)
    doc = json.loads(path.read_text())
    stats = doc["sorted_stats"]
    stats[50] = 0.5 * (stats[49] + stats[50])  # still sorted, still finite
    assert stats != table.sorted_stats.tolist() and stats == sorted(stats)
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorruptionError):
        cache_load(tmp_path, 40, 1.0, 110, 909)


def test_ensure_table_builds_then_hits(tmp_path):
    t1 = ensure_tables(tmp_path, 30, [2.0], 100, 5)[2.0]
    path = cache_path(tmp_path, 30, 2.0, 100, 5)
    assert path.exists()
    t2 = ensure_tables(tmp_path, 30, [2.0], 100, 5)[2.0]
    assert _same_table(t1, t2)


def test_ensure_tables_batch(tmp_path):
    got = ensure_tables(tmp_path, 30, [0.0, 2.0], 100, 5)
    assert set(got) == {0.0, 2.0}
    # second call is pure cache
    again = ensure_tables(tmp_path, 30, [0.0, 2.0], 100, 5)
    for s in (0.0, 2.0):
        assert _same_table(got[s], again[s])


def test_ensure_tables_builds_each_distinct_s_once(tmp_path, monkeypatch):
    stored = []
    real_store = nulldist.cache_store
    monkeypatch.setattr(nulldist, "cache_store",
                        lambda table, d: stored.append(table.s) or real_store(table, d))
    got = ensure_tables(tmp_path / "a", 30, [2.0, 2.0], 100, 5)
    assert stored == [2.0] and list(got) == [2.0]
    got = ensure_tables(tmp_path / "b", 30, [0.0, -0.0], 100, 5)
    assert len(list((tmp_path / "b").iterdir())) == 1
    assert got[-0.0] is got[0.0]


def test_table_key_is_canonical_in_s(tmp_path):
    # -0.0 and an int s name and write the same file as 0.0 and float(s)
    (neg,) = mc_null_tables(50, [-0.0], 100, 3)
    cache_store(neg, tmp_path / "neg")
    loaded = cache_load(tmp_path / "neg", 50, 0.0, 100, 3)
    assert loaded is not None and _same_table(loaded, neg)
    (two,) = mc_null_tables(50, [2.0], 100, 3)
    as_float = cache_store(two, tmp_path / "float")
    as_int = cache_store(dataclasses.replace(two, s=2), tmp_path / "int")
    assert as_int.name == as_float.name
    assert as_int.read_bytes() == as_float.read_bytes()


def test_table_key_is_canonical_in_a_numpy_integer_seed(tmp_path):
    # np.int64(3) names, writes and loads the same file as 3
    assert cache_path(tmp_path, 100, 2.0, 100, np.int64(3)) == cache_path(tmp_path, 100, 2.0, 100, 3)
    as_int = ensure_tables(tmp_path / "int", 100, [2.0], 100, 3)[2.0]
    as_np = ensure_tables(tmp_path / "np", 100, [2.0], 100, np.int64(3))[2.0]
    assert type(as_np.seed) is int and _same_table(as_np, as_int)
    (path,) = (tmp_path / "np").iterdir()
    assert path.read_bytes() == cache_path(tmp_path / "int", 100, 2.0, 100, 3).read_bytes()
    loaded = cache_load(tmp_path / "np", 100, 2.0, 100, np.int64(3))
    assert loaded is not None and _same_table(loaded, as_int)


def test_stats_roundtrip_exactly_through_json(tmp_path):
    table = mc_null_tables(25, [0.5], 100, 321)[0]
    cache_store(table, tmp_path)
    loaded = cache_load(tmp_path, 25, 0.5, 100, 321)
    np.testing.assert_array_equal(loaded.sorted_stats, table.sorted_stats)


# Bytes of cached tables.  A change to the kernel, the draws or the file format
# that alters them must bump CACHE_VERSION (and RNG_ID if the draws change) and
# re-pin these digests.  Re-pinned at CACHE_VERSION 2: closed forms for
# s = 2, -1, 1/2 and a sha256 of the statistics in each file.
PINNED_TABLE_SHA256 = {
    (50, -1.0): "85fc75f39130ca3bb105867419ddb18f9595a55529899f37453150b738072fbf",
    (50, 0.0): "582e0033c0b9dd24f891d2b48cebcd30ca15be87eaef4b7c76a7ea6cf72e5ae7",
    (50, 0.5): "1fcaab3f38ae06a513251714acd98eb88331f2c7c1fc9c0928b76c24939981ea",
    (50, 1.0): "f97c413c9750d627fa544a43087272a4e96127d5a98df857a680d7b74fefcc0c",
    (50, 2.0): "ee6a01c5d0f38810fd2b9d03631c06423e126c4e405431686561d932496cc549",
    (2000, -1.0): "22253b30e626940b199f3b9c6cc469adeadddce748b0e70fb22d12b4ceb107c8",
    (2000, 0.0): "ce03d350f8c8ebf93dfdafe5e152c964f6f1500d8bf01a803b48c6acf02baf98",
    (2000, 0.5): "50d5ae524556dd09e6da02ed420c76367f9634a5f1faeec27bd0c5330257565a",
    (2000, 1.0): "d84b01039a3bd4b25a322ee222e6e962fe8cdfcc562a3516636bce3e8fc1eb63",
    (2000, 2.0): "c7f48340c99e1a3e0f024b610bd3c4206101aa6e9c21c20ce3e207320769b53d",
    (16385, -1.0): "1d41b3ec4b6de126e155587cd5f5a84dbbfb196fedad3137df994e16bec20aa9",
    (16385, 0.0): "c50e4eac4db1a9aedc6b2b7c750faf4b0b0d83decdb96b82ca853a5a7247e216",
    (16385, 0.5): "7b2ec0f9944a82c3d17995a15e4392a3e85354dc91f1dbc7a26fb6b56725a610",
    (16385, 1.0): "05cf7f704f57bf8941bd7d6cb63052fa406f304374647cec839821bfe1bcf140",
    (16385, 2.0): "77dec34b33e3583aa6cda08b9c0e68feb550faa333a01feaa6e173d9bac6a5a2",
    (100000, -1.0): "518b825232486b5172f18e41f545ee65c16bdc365836e750539954e79767f4ac",
    (100000, 0.0): "0df4c8351b75eaa1ad4f61c4425f56c6b4d10102173d77b34ed52f900f58d92f",
    (100000, 0.5): "8a37fc4b7ef602a39c2ab4fb038749148fe07ddd9aeef661faec9318539be25a",
    (100000, 1.0): "d0818773a50cd4eccd87d7852aa255aa83194a99749531a686dd63bd99285ba6",
    (100000, 2.0): "7a2ac87d6976cd70da054227013d45c6cda8c8288a3be7c2b7e794286113da34",
}


def test_cached_table_bytes_are_pinned(tmp_path):
    assert (CACHE_VERSION, RNG_ID) == (2, "philox4x64-counter128-v1")
    got = {}
    for n in (50, 2000, 16385, 100_000):  # the last two: long rows (n >= 2^14)
        for table in mc_null_tables(n, (-1.0, 0.0, 0.5, 1.0, 2.0), 200, 20260):
            path = cache_store(table, tmp_path)
            got[(n, table.s)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PINNED_TABLE_SHA256


# sha256 of sorted_stats.tobytes() for the Berk-Jones members (s = 0, 1) of the
# n=2000 five-s build above.  Pinned independently of the file format, so a
# kernel rewrite that must leave these statistics untouched can prove it.
PINNED_BERK_JONES_STATS_SHA256 = {
    0.0: "40173d3137ef70986b7f130c4aa6997f021a99cc51aee6e193b8f4a723ab55fb",
    1.0: "81daff772b3a4fa24f7db48360dce2f589ba511a2e560902104ef293c72cc2ce",
}


def test_berk_jones_statistics_are_pinned():
    tables = mc_null_tables(2000, (-1.0, 0.0, 0.5, 1.0, 2.0), 200, 20260)
    got = {t.s: hashlib.sha256(t.sorted_stats.tobytes()).hexdigest()
           for t in tables if t.s in PINNED_BERK_JONES_STATS_SHA256}
    assert got == PINNED_BERK_JONES_STATS_SHA256
