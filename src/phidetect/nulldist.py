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
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from pathlib import Path

import numpy as np

from ._rand import RNG_ID, _fill_uniform, _pool_map, _replicate_rngs
from .divergence import _finite_s, _sup
from .errors import CacheCorruptionError, DomainError

__all__ = [
    "CENTERING_MIN_N",
    "CACHE_VERSION",
    "centering",
    "centering_offset",
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


def gumbel_quantile(p) -> float | np.ndarray:
    """Quantile log(4) - log(-log p) of the limit law, for 0 < p < 1."""
    pa = np.asarray(p, dtype=np.float64)
    if np.any(~((pa > 0.0) & (pa < 1.0))):
        raise DomainError("gumbel_quantile requires 0 < p < 1")
    out = _LOG_4 - np.log(-np.log(pa))
    return float(out) if np.ndim(p) == 0 else out


#: On-disk format version for calibration tables.
CACHE_VERSION = 3


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """Sorted Monte-Carlo null statistics keyed by the full generation recipe."""

    n: int
    s: float
    reps: int
    seed: int
    rng_id: str
    sorted_stats: np.ndarray

    def __post_init__(self) -> None:
        stats = np.asarray(self.sorted_stats, dtype=np.float64)
        if stats.ndim != 1 or stats.size != self.reps:
            raise DomainError("sorted_stats must be 1-d with length == reps")
        if np.any(np.diff(stats) < 0.0) or not np.all(np.isfinite(stats)):
            raise DomainError("sorted_stats must be finite and ascending")
        stats = stats.copy()
        stats.flags.writeable = False
        object.__setattr__(self, "sorted_stats", stats)
        object.__setattr__(self, "s", float(self.s) + 0.0)  # as keyed: -0.0 -> 0.0, 2 -> 2.0
        for name in ("n", "reps", "seed"):  # as keyed: a numpy integer as its int
            object.__setattr__(self, name, _int_key(getattr(self, name)))


#: Candidates per kernel call in the Monte-Carlo loop: it stacks max(1,
#: _STACK_CANDIDATES // (2(n-1))) replicates, 16 at n = 1000, whose kernel arrays
#: are R*n = 16k long, so small n pays numpy's per-call overhead once a stack.
_STACK_CANDIDATES = 1 << 15


def _mc_stats(n: int, s_list: list[float], seed: int, reps: range, draw) -> np.ndarray:
    """n*S_n(s) - r_n, shaped (len(s_list), len(reps)), on the n values that
    ``draw(rng, row)`` writes into ``row``, a row of the stack this call reuses,
    for each replicate in ``reps`` (``rng``: its substream of ``seed``): the one
    Monte-Carlo statistics loop, of null tables, power cells and boundary
    comparisons.  Rows go to ``_sup`` unsorted, each alone: any chunking gives the same values."""
    rn = centering_offset(n)
    height = max(1, _STACK_CANDIDATES // (2 * n - 2))
    buf = np.empty((min(height, len(reps)), n))
    out = np.empty((len(s_list), len(reps)), dtype=np.float64)
    rngs = _replicate_rngs(seed, reps)
    with np.errstate(over="ignore"):  # K_s = inf near p = 0
        for lo in range(0, len(reps), height):
            stack = buf[: len(reps) - lo]
            for row, rng in zip(stack, rngs):  # the stack first: zip takes no extra rng
                draw(rng, row)
            out[:, lo : lo + len(stack)] = n * _sup(stack, s_list) - rn
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
    s_list = [_finite_s(s) for s in s_values]
    chunk = -(-reps // (max(workers, 1) * 4))
    chunks = [range(a, min(a + chunk, reps)) for a in range(0, reps, chunk)]
    block = partial(_mc_stats, n, s_list, seed, draw=_fill_uniform)
    stats = np.concatenate(_pool_map(block, workers, chunks), axis=1)
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


def _int_key(x: int) -> int:  # as keyed and stored: a numpy integer as its int
    return int(x) if isinstance(x, np.integer) else x


def _key_digest(n: int, s: float, reps: int, seed: int) -> str:
    blob = json.dumps(
        {"n": _int_key(n), "s": repr(float(s) + 0.0), "reps": _int_key(reps),
         "seed": _int_key(seed), "rng_id": RNG_ID, "version": CACHE_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256(blob.encode("utf-8")).hexdigest()[:20]


def cache_path(cache_dir, n: int, s: float, reps: int, seed: int) -> Path:
    return Path(cache_dir) / f"calibration-{_key_digest(n, s, reps, seed)}.json"


def _stats_digest(sorted_stats: np.ndarray) -> str:
    return sha256(sorted_stats.tobytes()).hexdigest()


def cache_store(table: CalibrationTable, cache_dir) -> Path:
    """Persist a table; atomic (write-then-rename), returns the file path."""
    path = cache_path(cache_dir, table.n, table.s, table.reps, table.seed)
    doc = {
        "version": CACHE_VERSION,
        "n": table.n,
        "s": table.s,
        "reps": table.reps,
        "seed": table.seed,
        "rng_id": table.rng_id,
        "sorted_stats": table.sorted_stats.tolist(),
        "sha256": _stats_digest(table.sorted_stats),
    }
    return atomic_write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def cache_load(cache_dir, n: int, s: float, reps: int, seed: int) -> CalibrationTable | None:
    """Load a table if present for exactly this key; None when absent.

    A file that exists but cannot be parsed/validated, or whose statistics do
    not match their stored sha256, raises :class:`CacheCorruptionError` —
    corrupted data is reported, never used.
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
    expected_keys = {"version", "n", "s", "reps", "seed", "rng_id", "sorted_stats", "sha256"}
    if not expected_keys.issubset(doc):
        raise CacheCorruptionError(
            f"calibration cache file {path} is missing fields {sorted(expected_keys - set(doc))}"
        )
    key = (doc["n"], doc["s"], doc["reps"], doc["seed"], doc["rng_id"], doc["version"])
    if key != (n, float(s), reps, seed, RNG_ID, CACHE_VERSION):
        return None
    try:
        table = CalibrationTable(
            n=n, s=float(s), reps=reps, seed=seed, rng_id=RNG_ID,
            sorted_stats=np.asarray(doc["sorted_stats"], dtype=np.float64),
        )
    except (DomainError, TypeError, ValueError) as exc:
        raise CacheCorruptionError(f"invalid statistics in cache file {path}: {exc}") from exc
    if _stats_digest(table.sorted_stats) != doc["sha256"]:
        raise CacheCorruptionError(f"statistics in cache file {path} do not match their sha256")
    return table


def ensure_tables(cache_dir, n: int, s_values, reps: int, seed: int,
                  *, workers: int = 1) -> dict[float, CalibrationTable]:
    """Load-or-build tables for several s, building all missing ones in one
    pass over shared uniform draws (much cheaper than per-s builds).

    Each distinct s is loaded or built once: -0.0 counts as 0.0 (+ 0.0), so
    it keys the same file, and repeats are dropped.
    """
    s_list = list(dict.fromkeys(float(s) + 0.0 for s in s_values))
    found = {s: cache_load(cache_dir, n, s, reps, seed) for s in s_list}
    missing = [s for s in s_list if found[s] is None]
    if missing:
        for table in mc_null_tables(n, missing, reps, seed, workers=workers):
            cache_store(table, cache_dir)
            found[table.s] = table
    return found
