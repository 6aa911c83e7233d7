"""phidetect benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload calibrate-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` sets the workload up several times, runs its job in a closed
loop for ``--seconds`` (one client, ``workers=1``) and reports the end-to-end
metrics.  ``--trace 1`` runs one job untraced, then again with package
functions wrapped in spans, then untraced again; a probe adds the calls the
job does not make, and the run reports the per-layer metrics.  Either way every output is checked, a human-readable
table goes to stdout, and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
if every check passed.  Scratch files and result sets go to
``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Thread-count variables pinned to 1 for this process and every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Set-ups per run: at least this many, and more until SETUP_MIN_S have passed,
#: so that a set-up of microseconds is timed often enough for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

#: End-to-end metrics: (name, unit, meaning).
END_TO_END = (
    ("setup_s", "s", "median set-up: inputs and the tables the job only reads"),
    ("replicates_per_s", "1/s", "Monte-Carlo replicates per second of job time, closed loop"),
    ("cpu_s", "s", "user+sys CPU of this process per job, over the closed loop"),
    ("peak_rss_mb", "MB", "ru_maxrss of this process, read before the output checks"),
)


class Checks:
    """Counts checked operations and keeps the errors of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def check(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git work tree."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    from phidetect import RNG_ID
    from phidetect.nulldist import CACHE_VERSION

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if size:
            caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "cache_version": CACHE_VERSION,
        "rng_id": RNG_ID,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure(wl, args, work: Path, seeds: dict, ck: Checks, report: dict):
    """Untraced run: set-ups, then the closed loop; returns the end-to-end
    metrics as (value, sample count)."""
    from spans import median

    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        k = len(setups)
        t0 = time.perf_counter()
        st = wl.setup(work / f"setup-{k}", seeds)
        setups.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(work / f"setup-{k - 1}", ignore_errors=True)

    # the first job warms the allocator and page cache; it is checked, not timed
    outs, times = [wl.job(st, 0)], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        outs.append(wl.job(st, len(outs)))
        times.append(time.perf_counter() - t0)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    # read before the checks below, which hold their own copies of the inputs
    peak_rss_mb = ru1.ru_maxrss / 1024

    wl.verify(st, outs, ck)
    ops = sum(wl.ops(out) for out in outs[1:])
    report["samples"] = {"setup_s": setups, "job_s": times}
    return {
        "setup_s": (median(setups), len(setups)),
        "replicates_per_s": (ops / sum(times), ops),
        "cpu_s": (cpu / len(times), len(times)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def trace(wl, args, work: Path, seeds: dict, ck: Checks, report: dict):
    """Traced run: a warm-up job, one job untraced, traced and untraced again,
    then the probe; returns the per-layer metrics as (value, sample count)
    and notes on some of them."""
    import layers
    from spans import Tracer

    def timed(i, tr=None):
        with tr.span("perfbench.job", rid=f"job{i}") if tr else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.job(st, i)
            return time.perf_counter() - t0, out

    tr = Tracer()
    with layers.traced(tr):
        st = wl.setup(work / "setup", seeds)
    # a warm-up job, then untraced passes on either side of the traced one,
    # so that neither warm-up nor drift is counted as overhead
    _, plain = timed(0)
    before, _ = timed(1)
    with layers.traced(tr):
        during, traced = timed(2, tr)
    after, _ = timed(3)
    untraced = (before + after) / 2
    ck.check(wl.same(st, plain, traced))
    wl.verify(st, [plain], ck)

    with layers.traced(tr):
        layers.probe(tr, work / "probe", args.seed, ck)
    extras = {
        "alloc_peak_mb": layers.alloc_peak_mb(seeds["table"]),
        "import_ms": layers.import_ms(child_env(), ROOT),
        "overhead_s": during - untraced,
    }
    spans_file = work.parent / f"{work.name}-spans.jsonl"
    tr.write(spans_file)
    report["spans_file"] = str(spans_file.relative_to(ROOT))
    report["spans"] = len(tr.spans)
    report["untraced_s"] = untraced
    return layers.layer_metrics(tr.spans, extras)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phidetect" / "__init__.py").is_file():
        print(f"error: no phidetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import phidetect

    if Path(phidetect.__file__).resolve().parent != ROOT / "src" / "phidetect":
        print(f"error: phidetect imported from {phidetect.__file__}", file=sys.stderr)
        return 2
    import drive

    wl = drive.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(drive.WORKLOADS)}",
              file=sys.stderr)
        return 2

    results = ROOT / ".perfbench-work"
    work = results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    env = environment(ROOT)
    ck = Checks()
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    try:
        seeds = drive.derived_seeds(args.seed)
        if args.trace:
            metrics, notes = trace(wl, args, work, seeds, ck, report)
        else:
            metrics, notes = measure(wl, args, work, seeds, ck, report), {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    if args.trace:
        import layers

        defs = [(name, unit, notes.get(name, "")) for name, unit, _ in layers.PER_LAYER]
    else:
        defs = END_TO_END

    print(f"# perfbench workload={wl.name} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':36} {'value':>16} {'unit':6} {'n':>7}  meaning")
    for name, unit, meaning in defs:
        value, count = metrics[name]
        print(f"{name:36} {value:16.6g} {unit:6} {count:7d}  {meaning}")
    print(f"{'error_rate':36} {ck.failed / ck.attempted:16.6g} {'ratio':6} "
          f"{ck.attempted:7d}  failed / attempted operations and checks")
    for err in ck.errors:
        print(f"# FAILED {err}")

    report.update(attempted=ck.attempted, failed=ck.failed, errors=ck.errors,
                  metrics={name: {"value": v, "samples": c} for name, (v, c) in metrics.items()})
    (results / f"{work.name}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit, _ in defs},
    }))
    return 0 if ck.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
