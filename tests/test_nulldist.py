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


def test_table_key_is_canonical_in_numpy_integer_n_and_reps(tmp_path):
    # np.int64 n and reps name, write and load the same file as Python ints
    assert cache_path(tmp_path, np.int64(1000), 2.0, 100, 5) == cache_path(tmp_path, 1000, 2.0, 100, 5)
    as_int = ensure_tables(tmp_path / "int", 1000, [2.0], 100, 5)[2.0]
    as_np = ensure_tables(tmp_path / "np", np.int64(1000), [2.0], np.int64(100), 5)[2.0]
    assert type(as_np.n) is int and type(as_np.reps) is int and _same_table(as_np, as_int)
    (path,) = (tmp_path / "np").iterdir()
    assert path.read_bytes() == cache_path(tmp_path / "int", 1000, 2.0, 100, 5).read_bytes()
    loaded = cache_load(tmp_path / "np", np.int64(1000), 2.0, np.int64(100), 5)
    assert loaded is not None and _same_table(loaded, as_int)


def test_stats_roundtrip_exactly_through_json(tmp_path):
    table = mc_null_tables(25, [0.5], 100, 321)[0]
    cache_store(table, tmp_path)
    loaded = cache_load(tmp_path, 25, 0.5, 100, 321)
    np.testing.assert_array_equal(loaded.sorted_stats, table.sorted_stats)


# Bytes of cached tables.  A change to the kernel, the draws or the file format
# that alters them must bump CACHE_VERSION (and RNG_ID if the draws change) and
# re-pin these digests.  Re-pinned at CACHE_VERSION 2: closed forms for
# s = 2, -1, 1/2 and a sha256 of the statistics in each file.  Re-pinned at
# CACHE_VERSION 3 (K_s centred at s = 1 for 1/2 < s < 2): only the files'
# "version" field moved; every sorted_stats stayed bit-identical.
PINNED_TABLE_SHA256 = {
    (50, -1.0): "689a6c14247e0b1a4e525a1971f14def52ce6b7462cc402c5a624e3e31e5d8bb",
    (50, 0.0): "6e80ed8d2b68fed831e7759587bf1aa16a216999d2ed51e7232b289136195756",
    (50, 0.5): "2434cc8c0e770c5fbb759d6da5b64aaf9b2b68edfa40d69a9568ed70abd5755e",
    (50, 1.0): "22faa3fb92f9b18e7e6a57e9a31977334b0941024bb959007f3ba0c253d29510",
    (50, 2.0): "e31c14e6e61f562df8fdda165ce4ae95068ba987c5934eb395a47628a32ef74c",
    (2000, -1.0): "40aeb12786e1dcdde4fe978f44813bc4d024e84fae53042cc66c08d33eb117fa",
    (2000, 0.0): "b629a5125af69107f1894c7cca4935927f062a5cde4304d6e9203ceefa5875cb",
    (2000, 0.5): "2134df377b87fe92f1b30c8bdece949db0fb38aadb5c14b265b756fb57b9e5a5",
    (2000, 1.0): "d1a13397c9a14165287520b027560e9873b830403114f3e1c26f1b9c87ac0233",
    (2000, 2.0): "4eb3608d863b969da2a211383c8492ae117479850da9d433fe352a1f5b459b6f",
    (16385, -1.0): "6abcb4876efbfbccb1fe55b936e2eb409fd6bf171eeb8eb1873d62f7ec8c01e8",
    (16385, 0.0): "99fa8965d0d54c4aa7ff8d7afd46cdc84ea04e8da38205e891820be7605fc342",
    (16385, 0.5): "23153c068d8de0d768fa98cc06e349bd292ad57807ba4e8ec81da793abc0ca2e",
    (16385, 1.0): "afb7939f3c1e40d47fea6fb92cd80a4b33576523b77e1071c33c5892b34cddd2",
    (16385, 2.0): "5fcd82993c03de1f76d0b605f088e574c661a95a266a4e67be65391b51e63954",
    (100000, -1.0): "8b752d4fb234bfc39883eba0faf9c7e1bea3668d7c17326f80f461afee7a6a85",
    (100000, 0.0): "a44db443a03a5c112bdd3123799a5623a9111a0bb17fe0d0392c22dd767dc726",
    (100000, 0.5): "517149b9f956ac51ed93fc8cdb65b88395ac778e45b2ae8b23993945934e489b",
    (100000, 1.0): "3b0233796a6f9303b1ba697c4ee6df3d3e60d89509f7105e1e43525ecbb769e9",
    (100000, 2.0): "36522594122c2fc04d194b456c600dc142026eb7afb7b4dfc0e8aa5f54f35345",
}


def test_cached_table_bytes_are_pinned(tmp_path):
    assert (CACHE_VERSION, RNG_ID) == (3, "philox4x64-counter128-v1")
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
