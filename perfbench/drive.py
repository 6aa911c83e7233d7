"""The two workloads: set-up, the measured job and the output checks.

Each workload is a fixed recipe; the benchmark seed only picks the random
streams.  ``job(st, i)`` runs one unit of work through the package's own
entry points, looked up on their modules at call time
(``nulldist.ensure_tables``, ``experiments.power_sweep``,
``experiments.boundary_comparison``).  The traced run wraps module functions
in spans (``layers.traced``) and runs the same ``job``, so it times the
program's own call path.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from phidetect import (
    MixtureSpec,
    cache_load,
    cache_path,
    experiments,
    mixture_family,
    nulldist,
    replicate_rng,
    sample_mixture,
    scaled_statistic,
    scaled_statistics,
    stable_seed,
    to_pvalues,
    uniform_open,
)
from phidetect.experiments import PowerGridConfig

import oracle

FIVE_S = (-1.0, 0.0, 0.5, 1.0, 2.0)
ALPHA = 0.05


def derived_seeds(seed: int) -> dict[str, int]:
    """Program seeds (cell master, tables) from the benchmark seed."""
    state = np.random.SeedSequence([seed, 0x70626E63]).generate_state(2, dtype=np.uint64)
    return dict(zip(("master", "table"), (int(x) >> 1 for x in state)))


def null_draw(seed: int, rep: int, n: int) -> np.ndarray:
    """Sorted uniforms of null replicate ``rep`` (the table builder's stream)."""
    return np.sort(uniform_open(replicate_rng(seed, rep), n))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def setup(self, work: Path, seeds: dict) -> dict:
        raise NotImplementedError

    def job(self, st: dict, i: int):
        raise NotImplementedError

    def ops(self, out) -> int:
        """Monte-Carlo replicates completed by one job."""
        raise NotImplementedError

    def same(self, st: dict, a, b) -> list[str]:
        """Differences between two outputs of the same job."""
        raise NotImplementedError

    def verify(self, st: dict, outs: list, ck) -> None:
        """Oracle checks on the outputs of the jobs, recorded in ``ck``."""
        raise NotImplementedError


class ColdCalibration(Workload):
    """Null-table builds into an empty cache: the top cost ROADMAP names."""

    name = "calibrate-cold"
    # reps chosen so n=1e3 takes about 15% of a job and n=1e5 about 65%
    recipes = ((1000, FIVE_S, 2000), (10000, (2.0,), 600), (100000, FIVE_S, 100))

    def setup(self, work, seeds):
        # no table is read, so set-up only resolves the cache file name of each
        # table, which the checks compare; each job makes its own directory
        seed = seeds["table"]
        files = [(n, s, reps, cache_path("", n, s, reps, seed).name)
                 for n, s_list, reps in self.recipes for s in s_list]
        return {"work": work, "seed": seed, "files": files}

    def job(self, st, i):
        cache = fresh_dir(st["work"] / f"cache-{i}")
        for n, s_list, reps in self.recipes:
            nulldist.ensure_tables(cache, n, s_list, reps, st["seed"])
        return cache

    def ops(self, out):
        return sum(reps for _, _, reps in self.recipes)

    def same(self, st, a, b):
        errors = []
        for n, s, _, name in st["files"]:
            pa, pb = a / name, b / name
            if not (pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes()):
                errors.append(f"table n={n} s={s}: {name} differs between {a.name} and {b.name}")
        return errors

    def verify(self, st, outs, ck):
        ref = outs[0]
        for n, s, reps, _ in st["files"]:
            table = cache_load(ref, n, s, reps, st["seed"])
            ck.check([f"table n={n} s={s} missing from {ref.name}"] if table is None else
                     oracle.check_table(table, null_draw, f"table n={n} s={s}"))
        for out in outs[1:]:
            ck.check(self.same(st, ref, out))
            shutil.rmtree(out, ignore_errors=True)


class WarmStudy(Workload):
    """Power sweeps and a boundary comparison against warm tables."""

    name = "study-warm"
    ns = (1000, 10000, 100000)
    cell_reps = 25
    boundary_reps = 60
    table_reps = 100

    def setup(self, work, seeds):
        cache = fresh_dir(work) / "cache"
        common = dict(s_values=(2.0,), n_values=self.ns, alpha=ALPHA, reps=self.cell_reps,
                      seed=seeds["master"], cache_dir=str(cache), table_reps=self.table_reps,
                      table_seed=seeds["table"])
        st = {
            "cache": cache, "seeds": seeds,
            "sweeps": (
                PowerGridConfig(family="normal", betas=(0.6,), rs=(0.02, 0.5), **common),
                PowerGridConfig(family="scale-exponential", regime="dense", betas=(0.1,),
                                rs=(0.2, 0.6), **common),
            ),
            "boundary": MixtureSpec(mixture_family("scale-exponential", regime="dense"),
                                    0.1, 0.4, 10000),
        }
        for n in self.ns:
            nulldist.ensure_tables(cache, n, (2.0,), self.table_reps, seeds["table"])
        nulldist.ensure_tables(cache, 10000, FIVE_S, self.table_reps, seeds["table"])
        return st

    def job(self, st, i):
        results = [r for cfg in st["sweeps"] for r in experiments.power_sweep(cfg)]
        bc = experiments.boundary_comparison(
            st["boundary"], FIVE_S, ALPHA, self.boundary_reps, st["seeds"]["master"],
            cache_dir=st["cache"], table_reps=self.table_reps, table_seed=st["seeds"]["table"])
        return results, bc

    def ops(self, out):
        results, bc = out
        return sum(r.reps for r in results) + bc.reps

    def same(self, st, a, b):
        errors = [f"cell {ra.family} beta={ra.beta} r={ra.r} n={ra.n}: {ra} != {rb}"
                  for ra, rb in zip(a[0], b[0]) if ra != rb]
        if len(a[0]) != len(b[0]):
            errors.append(f"{len(a[0])} cells vs {len(b[0])}")
        if a[1] != b[1]:
            errors.append(f"boundary comparison {a[1]} != {b[1]}")
        return errors

    def verify(self, st, outs, ck):
        results, bc = outs[0]
        tseed = st["seeds"]["table"]
        for n, s in sorted({(n, 2.0) for n in self.ns} | {(10000, s) for s in FIVE_S}):
            table = cache_load(st["cache"], n, s, self.table_reps, tseed)
            ck.check(oracle.check_table(table, null_draw, f"table n={n} s={s}"))
        regimes = {cfg.family: cfg.regime for cfg in st["sweeps"]}
        for res in results:
            where = f"cell {res.family} beta={res.beta} r={res.r} n={res.n}"
            if res.error is not None:
                ck.check([f"{where}: {res.error}"])
                continue
            spec = MixtureSpec(mixture_family(res.family, regime=regimes[res.family]),
                               res.beta, res.r, res.n)
            table = cache_load(st["cache"], res.n, res.s, self.table_reps, tseed)
            crit = oracle.rank_critical(table.sorted_stats, res.alpha)
            samples = [to_pvalues(sample_mixture(spec, replicate_rng(res.seed, j))[0], spec.noise)
                       for j in range(res.reps)]
            count = oracle.count_rejections([x.values for x in samples], res.s, crit)
            errors = [] if count is None or count == round(res.rejection_rate * res.reps) else [
                f"{where}: rate {res.rejection_rate!r}, textbook {count}/{res.reps}"]
            for j in oracle.spot_replicates(res.reps):
                errors += oracle.check_statistic(samples[j].values, res.s,
                                                 scaled_statistic(samples[j], res.s),
                                                 f"{where} replicate {j}")
            ck.check(errors)
        ck.check(self._verify_boundary(st, bc))
        for out in outs[1:]:
            ck.check(self.same(st, outs[0], out))

    def _verify_boundary(self, st, bc):
        spec = st["boundary"]
        null_seed = stable_seed(bc.seed, "boundary-null")
        alt_seed = stable_seed(bc.seed, "boundary-alt")
        nulls = [to_pvalues(spec.noise.sample(spec.n, replicate_rng(null_seed, j)), spec.noise)
                 for j in range(bc.reps)]
        alts = [to_pvalues(sample_mixture(spec, replicate_rng(alt_seed, j))[0], spec.noise)
                for j in range(bc.reps)]
        errors = []
        for j in oracle.spot_replicates(bc.reps):
            for kind, sample in (("null", nulls[j]), ("alt", alts[j])):
                for s, stat in zip(bc.s_values, scaled_statistics(sample, bc.s_values)):
                    errors += oracle.check_statistic(sample.values, s, float(stat),
                                                     f"boundary {kind} replicate {j} s={s}")
        for s, got in zip(bc.s_values, bc.error_sums):
            table = cache_load(st["cache"], spec.n, s, self.table_reps, st["seeds"]["table"])
            crit = oracle.rank_critical(table.sorted_stats, bc.alpha)
            c0 = oracle.count_rejections([x.values for x in nulls], s, crit)
            c1 = oracle.count_rejections([x.values for x in alts], s, crit)
            if c0 is not None and c1 is not None and got != (c0 + bc.reps - c1) / bc.reps:
                errors.append(f"boundary s={s}: error sum {got!r}, textbook "
                              f"{(c0 + bc.reps - c1) / bc.reps!r}")
        return errors


WORKLOADS = {w.name: w for w in (ColdCalibration(), WarmStudy())}
