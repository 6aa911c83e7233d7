"""Null-distribution calibration for n*S_n(s).

Two routes are provided:

* ``gumbel_quantile(1 - alpha)`` — the limit-law critical value on the
  ``n*S_n(s) - r_n`` scale, from the Gumbel-type limit with CDF
  exp(-4 e^{-x}).  The limit is the same for every s, but convergence is
  known to be very slow, so these values are advisory only; every consumer
  in this package labels them as such.
* ``mc_null_tables`` / ``critical_from_sorted`` — Monte-Carlo calibration
  under the null (uniform p-values), the recommended route.  Tables are
  bit-exactly reproducible from (n, s, reps, seed, rng_id) and are loaded or
  built through ``ensure_tables``, cached on disk as single JSON documents
  with atomic writes.

Table entries are on the ``n*S_n(s) - r_n`` scale; below the centering
domain (n < 16) the raw ``n*S_n(s)`` is stored (r_n treated as 0).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from ._rand import RNG_ID, replicate_rng, uniform_open
from .divergence import _sup_values_raw
from .errors import CacheCorruptionError, DomainError

__all__ = [
    "CENTERING_MIN_N",
    "CACHE_VERSION",
    "centering",
    "centering_offset",
    "gumbel_cdf",
    "gumbel_quantile",
    "CalibrationTable",
    "mc_null_tables",
    "critical_from_sorted",
    "pvalue_from_sorted",
    "cache_path",
    "cache_store",
    "cache_load",
    "ensure_tables",
]

#: Smallest n for which the centering sequence is evaluated.
CENTERING_MIN_N = 16

_HALF_LOG_4PI = 0.5 * math.log(4.0 * math.pi)
_LOG_4 = math.log(4.0)


def centering(n: int) -> float:
    """Centering sequence r_n = loglog n + (1/2) logloglog n - (1/2) log 4*pi.

    Hard domain cut at n >= 16: below that the triple logarithm leaves its
    sensible range (ln ln 15 < 1) and the asymptotics mean nothing.
    """
    if n < CENTERING_MIN_N:
        raise DomainError(f"centering requires n >= {CENTERING_MIN_N}, got {n}")
    lln = math.log(math.log(n))
    return lln + 0.5 * math.log(lln) - _HALF_LOG_4PI


def centering_offset(n: int) -> float:
    """r_n where defined, 0 below the domain cut — the shift actually applied
    to n*S_n(s) everywhere in this package (tables and test statistics)."""
    return centering(n) if n >= CENTERING_MIN_N else 0.0


def gumbel_cdf(x) -> float | np.ndarray:
    """CDF exp(-4 exp(-x)) of the limit law."""
    xa = np.asarray(x, dtype=np.float64)
    out = np.exp(-4.0 * np.exp(-xa))
    return float(out) if np.ndim(x) == 0 else out


def gumbel_quantile(p) -> float | np.ndarray:
    """Quantile log(4) - log(-log p) of the limit law, for 0 < p < 1."""
    pa = np.asarray(p, dtype=np.float64)
    if np.any(~((pa > 0.0) & (pa < 1.0))):
        raise DomainError("gumbel_quantile requires 0 < p < 1")
    out = _LOG_4 - np.log(-np.log(pa))
    return float(out) if np.ndim(p) == 0 else out


#: On-disk format version for calibration tables.
CACHE_VERSION = 1


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """Sorted Monte-Carlo null statistics keyed by the full generation recipe."""

    n: int
    s: float
    reps: int
    seed: int
    rng_id: str
    sorted_stats: np.ndarray
    version: int = CACHE_VERSION

    def __post_init__(self) -> None:
        stats = np.asarray(self.sorted_stats, dtype=np.float64)
        if stats.ndim != 1 or stats.size != self.reps:
            raise DomainError("sorted_stats must be 1-d with length == reps")
        if np.any(np.diff(stats) < 0.0) or not np.all(np.isfinite(stats)):
            raise DomainError("sorted_stats must be finite and ascending")
        stats = stats.copy()
        stats.flags.writeable = False
        object.__setattr__(self, "sorted_stats", stats)

    def equals(self, other: "CalibrationTable") -> bool:
        return (
            (self.n, self.s, self.reps, self.seed, self.rng_id, self.version)
            == (other.n, other.s, other.reps, other.seed, other.rng_id, other.version)
            and np.array_equal(self.sorted_stats, other.sorted_stats)
        )


def _null_stats_block(n: int, s_list: list[float], seed: int, start: int, stop: int) -> np.ndarray:
    """Statistics for replicates [start, stop) — position-independent by the
    substream contract, so any chunking across workers yields the same rows."""
    rn = centering_offset(n)
    out = np.empty((len(s_list), stop - start), dtype=np.float64)
    for k, rep in enumerate(range(start, stop)):
        u = uniform_open(replicate_rng(seed, rep), n)
        u.sort()
        out[:, k] = n * _sup_values_raw(u, s_list) - rn
    return out


def mc_null_tables(
    n: int,
    s_values,
    reps: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[CalibrationTable]:
    """Build calibration tables for several s from the same uniform draws.

    One pass over the replicates computes every statistic on each sample, so
    the per-s tables are 'paired' (useful for s-stability studies) and cost
    little more than a single-s build.
    """
    if n < 2:
        raise DomainError("mc_null_tables requires n >= 2")
    if reps < 100:
        raise DomainError("mc_null_tables requires reps >= 100")
    s_list = [float(s) for s in s_values]
    if workers <= 1:
        stats = _null_stats_block(n, s_list, seed, 0, reps)
    else:
        chunk = max(1, -(-reps // (workers * 4)))
        starts = list(range(0, reps, chunk))
        stats = np.empty((len(s_list), reps), dtype=np.float64)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_null_stats_block, n, s_list, seed, a, min(a + chunk, reps)): a
                for a in starts
            }
            for fut, a in futures.items():
                block = fut.result()
                stats[:, a : a + block.shape[1]] = block
    return [
        CalibrationTable(
            n=n, s=s, reps=reps, seed=seed, rng_id=RNG_ID, sorted_stats=np.sort(stats[j])
        )
        for j, s in enumerate(s_list)
    ]


def critical_from_sorted(sorted_stats: np.ndarray, alpha: float) -> float:
    """Rank-based critical value from any sorted MC null sample.

    Order statistic at rank ceil((1-alpha)(reps+1)); the +1 makes the
    convention conservative (never anti-conservative) at finite reps, and the
    rank is clamped to the largest entry.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    reps = len(sorted_stats)
    if alpha * reps < 5:
        warnings.warn(
            f"alpha*reps = {alpha * reps:.2f} < 5: tail estimate is unstable, "
            "increase reps or alpha",
            RuntimeWarning,
            stacklevel=2,
        )
    rank = math.ceil((1.0 - alpha) * (reps + 1))
    rank = min(rank, reps)
    return float(sorted_stats[rank - 1])


def pvalue_from_sorted(sorted_stats: np.ndarray, statistic: float) -> float:
    """Rank-based MC p-value (1 + #{entries >= statistic}) / (reps + 1)."""
    reps = len(sorted_stats)
    below = int(np.searchsorted(sorted_stats, statistic, side="left"))
    return (1 + reps - below) / (reps + 1)


# --------------------------------------------------------------------------
# on-disk cache: one JSON document per table, hash-of-key filename,
# write-to-temp + atomic rename; safe for concurrent writers (same key =>
# identical bytes, so whichever rename lands last changes nothing).

def atomic_write_text(path, text: str) -> Path:
    """Write a file via temp-then-rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def _key_digest(n: int, s: float, reps: int, seed: int, rng_id: str, version: int) -> str:
    blob = json.dumps(
        {"n": n, "s": repr(float(s)), "reps": reps, "seed": seed,
         "rng_id": rng_id, "version": version},
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256(blob.encode("utf-8")).hexdigest()[:20]


def cache_path(cache_dir, n: int, s: float, reps: int, seed: int,
               rng_id: str = RNG_ID, version: int = CACHE_VERSION) -> Path:
    return Path(cache_dir) / f"calibration-{_key_digest(n, s, reps, seed, rng_id, version)}.json"


def cache_store(table: CalibrationTable, cache_dir) -> Path:
    """Persist a table; atomic (write-then-rename), returns the file path."""
    path = cache_path(cache_dir, table.n, table.s, table.reps, table.seed,
                      table.rng_id, table.version)
    doc = {
        "version": table.version,
        "n": table.n,
        "s": table.s,
        "reps": table.reps,
        "seed": table.seed,
        "rng_id": table.rng_id,
        "sorted_stats": table.sorted_stats.tolist(),
    }
    return atomic_write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def cache_load(cache_dir, n: int, s: float, reps: int, seed: int) -> CalibrationTable | None:
    """Load a table if present for exactly this key; None when absent.

    A file that exists but cannot be parsed/validated raises
    :class:`CacheCorruptionError` — corrupted data is reported, never used.
    A readable file whose embedded key or version disagrees with the request
    counts as absent (it belongs to some other recipe).
    """
    path = cache_path(cache_dir, n, s, reps, seed)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheCorruptionError(f"unparseable calibration cache file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CacheCorruptionError(f"calibration cache file {path} is not a JSON object")
    expected_keys = {"version", "n", "s", "reps", "seed", "rng_id", "sorted_stats"}
    if not expected_keys.issubset(doc):
        raise CacheCorruptionError(
            f"calibration cache file {path} is missing fields {sorted(expected_keys - set(doc))}"
        )
    key = (doc["n"], doc["s"], doc["reps"], doc["seed"], doc["rng_id"], doc["version"])
    if key != (n, float(s), reps, seed, RNG_ID, CACHE_VERSION):
        return None
    stats = doc["sorted_stats"]
    if not isinstance(stats, list) or len(stats) != reps:
        raise CacheCorruptionError(
            f"calibration cache file {path} has {len(stats) if isinstance(stats, list) else '?'} "
            f"entries, expected {reps}"
        )
    try:
        table = CalibrationTable(
            n=n, s=float(s), reps=reps, seed=seed, rng_id=RNG_ID,
            sorted_stats=np.asarray(stats, dtype=np.float64),
        )
    except (DomainError, TypeError, ValueError) as exc:
        raise CacheCorruptionError(f"invalid statistics in cache file {path}: {exc}") from exc
    return table


def ensure_tables(cache_dir, n: int, s_values, reps: int, seed: int,
                  *, workers: int = 1) -> dict[float, CalibrationTable]:
    """Load-or-build tables for several s, building all missing ones in one
    pass over shared uniform draws (much cheaper than per-s builds)."""
    s_list = [float(s) for s in s_values]
    found = {s: cache_load(cache_dir, n, s, reps, seed) for s in s_list}
    missing = [s for s in s_list if found[s] is None]
    if missing:
        for table in mc_null_tables(n, missing, reps, seed, workers=workers):
            cache_store(table, cache_dir)
            found[table.s] = table
    return found
