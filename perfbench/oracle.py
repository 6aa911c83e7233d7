"""Output checks that do not trust the code under test.

The reference statistic is the textbook two-point divergence

    K_s(u, v) = v*phi_s(u/v) + (1-v)*phi_s((1-u)/(1-v)),
    phi_s(x)  = (1 - s + s*x - x**s) / (s*(1-s))   (x - log x - 1 at s=0,
                                                    x log x - x + 1 at s=1)

maximised over the 2(n-1) interval endpoints (i/n, X_(i)) and
(i/n, X_(i+1)), written directly from the definition and sharing no code
with ``phidetect.divergence``.  Rank rules for critical values and p-values
are restated here as well.  Only the random streams (``replicate_rng``,
``uniform_open``) and the model samplers come from the package: they define
the inputs, not the answer.

Every check returns a list of error strings; an empty list means correct.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance between the package and the textbook statistic.
RTOL = 1e-9


def _phi(s: float, x: np.ndarray) -> np.ndarray:
    if s == 0.0:
        return x - np.log(x) - 1.0
    if s == 1.0:
        return x * np.log(x) - x + 1.0
    return (1.0 - s + s * x - x**s) / (s * (1.0 - s))


def textbook_sup(sorted_values: np.ndarray, s: float) -> float:
    """n * S_n(s) by direct evaluation of K_s at every endpoint candidate."""
    v = np.asarray(sorted_values, dtype=np.float64)
    n = v.size
    u = np.arange(1, n, dtype=np.float64) / n
    best = -math.inf
    for x in (v[:-1], v[1:]):
        k = x * _phi(s, u / x) + (1.0 - x) * _phi(s, (1.0 - u) / (1.0 - x))
        best = max(best, float(k.max()))
    return n * best


def centering(n: int) -> float:
    """r_n = loglog n + (1/2) logloglog n - (1/2) log(4 pi), 0 below n = 16."""
    if n < 16:
        return 0.0
    lln = math.log(math.log(n))
    return lln + 0.5 * math.log(lln) - 0.5 * math.log(4.0 * math.pi)


def rank_critical(sorted_stats, alpha: float) -> float:
    """Order statistic at rank ceil((1-alpha)(reps+1)), clamped to reps."""
    reps = len(sorted_stats)
    return float(sorted_stats[min(math.ceil((1.0 - alpha) * (reps + 1)), reps) - 1])


def rank_pvalue(sorted_stats, statistic: float) -> float:
    """(1 + #{entries >= statistic}) / (reps + 1)."""
    reps = len(sorted_stats)
    return (1 + sum(1 for t in sorted_stats if t >= statistic)) / (reps + 1)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def spot_replicates(reps: int) -> list[int]:
    """Replicates whose table entries are recomputed: first, middle, last."""
    return sorted({0, reps // 2, reps - 1})


def check_table(table, null_draw, where: str) -> list[str]:
    """Spot-check a calibration table against textbook null replicates.

    ``null_draw(seed, rep, n)`` returns the sorted uniforms of one null
    replicate.  Each spot replicate's n*S_n(s) - r_n must be present among
    the sorted entries to RTOL (entries are sorted, so the replicate's rank
    is unknown and the nearest entry is compared).
    """
    errors = []
    stats = np.asarray(table.sorted_stats, dtype=np.float64)
    if stats.size != table.reps or np.any(np.diff(stats) < 0.0):
        return [f"{where}: table has {stats.size} entries or is unsorted"]
    rn = centering(table.n)
    for rep in spot_replicates(table.reps):
        want = textbook_sup(null_draw(table.seed, rep, table.n), table.s)
        i = int(np.searchsorted(stats, want - rn))
        near = [float(stats[j]) + rn for j in (i - 1, i) if 0 <= j < stats.size]
        if not any(close(got, want) for got in near):
            errors.append(f"{where}: replicate {rep} n*S={want!r} not among the entries "
                          f"(nearest {near!r})")
    return errors


def check_statistic(sorted_values, s: float, statistic: float, where: str) -> list[str]:
    """A reported n*S_n(s) - r_n against the textbook value."""
    n = len(sorted_values)
    want = textbook_sup(sorted_values, s)
    if not close(statistic + centering(n), want):
        return [f"{where}: statistic {statistic!r}, textbook {want - centering(n)!r}"]
    return []


def check_test_payload(payload: dict, sorted_values, sorted_stats, where: str) -> list[str]:
    """A `phidetect test` JSON payload: statistic, critical, p-value, verdict."""
    alpha = payload["alpha"]
    errors = check_statistic(sorted_values, payload["s"], payload["statistic"], where)
    crit = rank_critical(sorted_stats, alpha)
    if payload["mc_critical"] != crit:
        errors.append(f"{where}: mc_critical {payload['mc_critical']!r}, rank rule {crit!r}")
    pval = rank_pvalue(sorted_stats, payload["statistic"])
    if payload["mc_pvalue"] != pval:
        errors.append(f"{where}: mc_pvalue {payload['mc_pvalue']!r}, rank rule {pval!r}")
    reject = payload["statistic"] > crit
    if payload["reject"] != reject or payload["verdict"] != ("reject" if reject else "retain"):
        errors.append(f"{where}: verdict {payload['verdict']!r}/{payload['reject']!r} "
                      f"but statistic > critical is {reject}")
    return errors


def count_rejections(samples, s: float, critical: float):
    """Textbook rejection count over sorted samples; None if any statistic
    lies within RTOL of the critical value (the verdict is then undecidable)."""
    count = 0
    for values in samples:
        n = len(values)
        raw = textbook_sup(values, s)
        if close(raw, critical + centering(n)):
            return None
        count += raw - centering(n) > critical
    return count
