"""Command-line front end.

Subcommands::

    test       run the calibrated test on a data file
    calibrate  build (and cache) a Monte-Carlo null table
    power      run a power sweep from an INI config
    boundary   closed-form boundary values / regime classification
    diagnose   detectability diagnostic curves as CSV

Exit codes: 0 success (a "retain" verdict is still success), 2 usage or
domain errors, 3 I/O errors.  All numeric output goes through ``repr`` so
``--json`` and the human rendering carry identical numbers.  Output files
are written via temp-then-rename; partial files are never left behind.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import boundary as boundary_mod
from .errors import CacheCorruptionError, DomainError
from .experiments import (
    PowerGridConfig,
    power_csv,
    power_sweep,
    run_divergence_test,
    write_power_csv,
    write_power_json,
)
from .models import (
    Exponential,
    Frechet,
    Gumbel,
    MixtureSpec,
    Normal,
    Uniform,
    diagnostic_H,
    diagnostic_H_sparse,
    mixture_family,
    to_pvalues,
)
from .nulldist import (
    CENTERING_MIN_N,
    atomic_write_text,
    cache_path,
    critical_from_sorted,
    ensure_tables,
    gumbel_quantile,
)

S_DEFAULT_CAVEAT = (
    "note: no s is uniformly best; defaulting to s=2 (the higher-criticism "
    "member). Pass --s to choose another."
)
ADVISORY_LABEL = "advisory (slow convergence)"

_NOISE_MODELS = {
    "uniform": Uniform,
    "normal": Normal,
    "exponential": Exponential,
    "gumbel": Gumbel,
    "frechet": lambda: Frechet(1.0),
}


def default_cache_dir(flag_value=None) -> str:
    if flag_value:
        return str(flag_value)
    return os.environ.get("PHIDETECT_CACHE", ".phidetect-cache")


def read_data_file(path) -> np.ndarray:
    """One real per line, or a single-column CSV whose first line is a header."""
    text = Path(path).read_text(encoding="utf-8")
    values: list[float] = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        token = line.rstrip(",").strip()
        try:
            values.append(float(token))
        except ValueError:
            if header_allowed and not values:
                header_allowed = False
                continue
            raise DomainError(f"line {lineno}: cannot parse {raw!r} as a number") from None
        header_allowed = False
    if len(values) < 2:
        raise DomainError("need n >= 2 data values")
    return np.asarray(values, dtype=np.float64)


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _kv(key: str, value) -> str:
    return f"{key:<22} {value!r}" if isinstance(value, float) else f"{key:<22} {value}"


# --------------------------------------------------------------------------
# test


def _advisory_critical(n: int, alpha: float) -> float | None:
    """Limit-law critical value q(1 - alpha) on the n*S_n(s) - r_n scale; None
    below the centering domain or where 1 - alpha rounds to 1."""
    return gumbel_quantile(1.0 - alpha) if n >= CENTERING_MIN_N and 1.0 - alpha < 1.0 else None


def cmd_test(args) -> int:
    data = read_data_file(args.data_file)
    factory = _NOISE_MODELS.get(args.model)
    if factory is None:
        raise DomainError(f"unknown model {args.model!r}; known: {', '.join(_NOISE_MODELS)}")
    s = args.s
    if s is None:
        s = 2.0
        print(S_DEFAULT_CAVEAT, file=sys.stderr)
    sample = to_pvalues(data, factory())
    n = sample.n
    table = ensure_tables(default_cache_dir(args.cache_dir), n, [s], args.reps,
                          args.seed, workers=args.workers)[float(s)]
    outcome = run_divergence_test(sample, s, table, args.alpha)
    asym = _advisory_critical(n, args.alpha)
    verdict = "reject" if outcome.reject else "retain"
    payload = {
        "n": n,
        "s": s,
        "alpha": args.alpha,
        "statistic": outcome.statistic,
        "mc_critical": outcome.critical,
        "asymptotic_critical": asym,
        "asymptotic_label": ADVISORY_LABEL,
        "mc_pvalue": outcome.mc_pvalue,
        "reject": outcome.reject,
        "verdict": verdict,
    }
    lines = [
        _kv("n", n),
        _kv("s", float(s)),
        _kv("statistic", outcome.statistic),
        _kv("mc_critical", outcome.critical),
        _kv("asymptotic_critical",
            "unavailable (n < 16)" if asym is None else f"{asym!r}  [{ADVISORY_LABEL}]"),
        _kv("mc_pvalue", outcome.mc_pvalue),
        _kv("verdict", f"{verdict} at alpha={args.alpha!r}"),
    ]
    _emit(args, lines, payload)
    return 0


# --------------------------------------------------------------------------
# calibrate


def _parse_float_list(text: str) -> list[float]:
    parts = _split_values(text)
    if not parts:
        raise DomainError("empty numeric list")
    return [float(p) for p in parts]


def cmd_calibrate(args) -> int:
    alphas = _parse_float_list(args.alpha_list)
    cache = default_cache_dir(args.cache_dir)
    table = ensure_tables(cache, args.n, [args.s], args.reps, args.seed,
                          workers=args.workers)[float(args.s)]
    path = cache_path(cache, table.n, table.s, table.reps, table.seed)
    criticals = {repr(float(a)): critical_from_sorted(table.sorted_stats, a) for a in alphas}
    payload = {
        "table_file": str(path),
        "n": table.n,
        "s": table.s,
        "reps": table.reps,
        "seed": table.seed,
        "rng_id": table.rng_id,
        "mc_criticals": criticals,
        "asymptotic_label": ADVISORY_LABEL,
    }
    lines = [
        _kv("table_file", path),
        _kv("n", table.n),
        _kv("s", float(table.s)),
        _kv("reps", table.reps),
        _kv("seed", table.seed),
    ]
    for a in alphas:
        lines.append(_kv(f"mc_critical[{a!r}]", criticals[repr(float(a))]))
        asym = _advisory_critical(table.n, a)
        if asym is not None:
            lines.append(_kv(f"asymptotic[{a!r}]", f"{asym!r}  [{ADVISORY_LABEL}]"))
            payload.setdefault("asymptotic_criticals", {})[repr(float(a))] = asym
    _emit(args, lines, payload)
    return 0


# --------------------------------------------------------------------------
# power


def _split_values(text: str) -> list[str]:
    return [p for p in re.split(r"[,\s]+", text.strip()) if p]


def _ini_integer(text: str, key: str) -> int:
    """A sample size from an INI file: ``1e5`` reads as 100000; ``100.7`` is an error."""
    value = float(text)
    if not value.is_integer():
        raise DomainError(f"{key} must be a whole number, got {text!r}")
    return int(value)


def _load_ini(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def _model_fields(model: configparser.SectionProxy) -> dict:
    """The mixture fields of a ``[model]`` section, named as in PowerGridConfig."""
    return {
        "family": model.get("family", "normal"),
        "regime": model.get("regime", None),
        "family_params": tuple((k, model.getfloat(k)) for k in ("sigma0", "shape") if k in model),
        "epsilon_override": (model.getfloat("epsilon_override")
                             if "epsilon_override" in model else None),
    }


def _power_config_from_ini(cp: configparser.ConfigParser, workers: int,
                           cache_flag) -> tuple[PowerGridConfig, dict]:
    if "model" not in cp or "grid" not in cp:
        raise DomainError("power config needs [model] and [grid] sections")
    grid = cp["grid"]
    calib = cp["calibration"] if "calibration" in cp else {}
    output = cp["output"] if "output" in cp else {}
    table_seed = int(calib["seed"]) if "seed" in calib else None
    cache_dir = default_cache_dir(cache_flag or calib.get("cache_dir"))
    config = PowerGridConfig(
        **_model_fields(cp["model"]),
        betas=tuple(float(v) for v in _split_values(grid.get("betas", ""))),
        rs=tuple(float(v) for v in _split_values(grid.get("rs", ""))),
        s_values=tuple(float(v) for v in _split_values(grid.get("s", "2"))),
        n_values=tuple(_ini_integer(v, "ns") for v in _split_values(grid.get("ns", ""))),
        alpha=grid.getfloat("alpha", 0.05),
        reps=grid.getint("reps", 200),
        seed=grid.getint("seed", 0),
        cache_dir=cache_dir,
        table_reps=int(calib["reps"]) if "reps" in calib else 10_000,
        table_seed=table_seed,
        workers=workers,
    )
    out_paths = {
        "csv": output.get("csv", None) if output else None,
        "json": output.get("json", None) if output else None,
    }
    return config, out_paths


def cmd_power(args) -> int:
    cp = _load_ini(args.config)
    config, out_paths = _power_config_from_ini(cp, args.workers, args.cache_dir)
    results = power_sweep(config)
    failed = [r for r in results if r.error is not None]
    wrote = []
    if out_paths["csv"]:
        wrote.append(str(write_power_csv(results, out_paths["csv"])))
    if out_paths["json"]:
        wrote.append(str(write_power_json(results, out_paths["json"])))
    if not wrote:
        sys.stdout.write(power_csv(results))
    else:
        for path in wrote:
            print(f"wrote {path}")
    print(f"{len(results)} cells, {len(failed)} failed")
    for r in failed:
        print(f"failed cell (beta={r.beta!r}, r={r.r!r}, s={r.s!r}, n={r.n}): {r.error}",
              file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# boundary


def _read_gamma_table(path) -> tuple[np.ndarray, np.ndarray]:
    text = Path(path).read_text(encoding="utf-8")
    ts, gs = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise DomainError(f"line {lineno}: expected 't,gamma' pairs, got {raw!r}")
        try:
            ts.append(float(parts[0]))
            gs.append(float(parts[1]))
        except ValueError:
            if lineno == 1:
                continue  # header
            raise DomainError(f"line {lineno}: cannot parse {raw!r}") from None
    t = np.asarray(ts, dtype=np.float64)
    g = np.asarray(gs, dtype=np.float64)
    if t.size < 2 or np.any(np.diff(t) <= 0):
        raise DomainError("gamma table needs >= 2 rows with strictly increasing t")
    return t, g


def cmd_boundary(args) -> int:
    if args.gamma_table:
        t, g = _read_gamma_table(args.gamma_table)
        value = boundary_mod.beta_sharp_from_gamma(
            lambda x: np.interp(x, t, g), float(t[0]), float(t[-1]),
            max(boundary_mod.DEFAULT_GRID_POINTS, t.size),
        )
        lines = [_kv("beta_sharp", value), _kv("t_range", f"[{t[0]!r}, {t[-1]!r}]")]
        _emit(args, lines, {"beta_sharp": value, "t_min": float(t[0]), "t_max": float(t[-1])})
        return 0
    if args.family is None:
        raise DomainError("boundary needs --family (or --gamma-table)")
    kind = args.family
    if kind not in boundary_mod.BOUNDARY_KINDS:
        raise DomainError(
            f"unknown boundary family {kind!r}; known: {', '.join(boundary_mod.BOUNDARY_KINDS)}"
        )
    betas = _parse_float_list(args.beta) if args.beta else []
    rs = _parse_float_list(args.r) if args.r else []
    rows = []
    if rs and betas:
        for beta in betas:
            for r in rs:
                c = boundary_mod.classify(kind, beta, r, p=args.p)
                rows.append({
                    "beta": beta, "r": r,
                    "threshold": c.threshold_value,
                    "margin": c.margin,
                    "verdict": c.verdict.value,
                })
    elif betas and kind in ("normal-sparse", "expfam-dense"):
        fn = (boundary_mod.rho_normal_sparse if kind == "normal-sparse"
              else boundary_mod.rho_dense)
        rows = [{"beta": beta, "threshold": fn(beta)} for beta in betas]
    elif rs and kind == "expfam-sparse":
        rows = [{"r": r, "threshold": boundary_mod.beta_sharp_expfam(r, args.p)}
                for r in rs]
    else:
        raise DomainError(
            "boundary needs --beta (r-threshold families), --r (expfam-sparse), or both"
        )
    lines = []
    for row in rows:
        lines.append("  ".join(_kv(k, v).strip() for k, v in row.items()))
    _emit(args, lines, {"family": kind, "rows": rows})
    return 0


# --------------------------------------------------------------------------
# diagnose


def _mixture_from_ini(cp: configparser.ConfigParser) -> MixtureSpec:
    if "model" not in cp:
        raise DomainError("diagnose config needs a [model] section")
    model = cp["model"]
    for key in ("beta", "r", "n"):
        if key not in model:
            raise DomainError(f"diagnose [model] section needs '{key}'")
    fields = _model_fields(model)
    fam = mixture_family(fields["family"], regime=fields["regime"],
                         **dict(fields["family_params"]))
    return MixtureSpec(fam, model.getfloat("beta"), model.getfloat("r"),
                       _ini_integer(model["n"], "n"), epsilon_override=fields["epsilon_override"])


def cmd_diagnose(args) -> int:
    cp = _load_ini(args.model_config)
    spec = _mixture_from_ini(cp)
    if not (0.0 < args.v_min < args.v_max < 0.5):
        raise DomainError("need 0 < --v-min < --v-max < 0.5")
    if args.v_count < 2:
        raise DomainError("need --v-count >= 2")
    if args.v_scale == "log":
        grid = np.geomspace(args.v_min, args.v_max, args.v_count)
    else:
        grid = np.linspace(args.v_min, args.v_max, args.v_count)
    curve = (diagnostic_H_sparse if args.kind == "sparse" else diagnostic_H)(spec, grid)
    lines = ["v,value"]
    lines += [f"{float(v)!r},{float(h)!r}" for v, h in zip(curve.v, curve.values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phidetect",
        description="Goodness-of-fit testing for sparse/dense mixtures via "
                    "phi-divergence sup-statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the calibrated test on a data file")
    p.add_argument("data_file")
    p.add_argument("--model", default="uniform", help="noise model for the p-value transform")
    p.add_argument("--s", type=float, default=None, help="divergence index (default 2)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=10_000, help="MC calibration replicates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("calibrate", help="build and cache an MC null table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--alpha-list", default="0.01,0.05,0.1")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("power", help="run a power sweep from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("boundary", help="boundary values / regime classification")
    p.add_argument("--family", default=None,
                   help="one of: " + ", ".join(boundary_mod.BOUNDARY_KINDS))
    p.add_argument("--beta", default=None, help="comma-separated beta values")
    p.add_argument("--r", default=None, help="comma-separated r values")
    p.add_argument("--p", type=float, default=1.0, help="tail exponent for expfam-sparse")
    p.add_argument("--gamma-table", default=None, help="CSV of t,gamma(t) rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("diagnose", help="detectability diagnostic curve as CSV")
    p.add_argument("--model-config", required=True)
    p.add_argument("--v-min", type=float, default=1e-4)
    p.add_argument("--v-max", type=float, default=0.4)
    p.add_argument("--v-count", type=int, default=200)
    p.add_argument("--v-scale", choices=("log", "linear"), default="log")
    p.add_argument("--kind", choices=("full", "sparse"), default="full")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, CacheCorruptionError, configparser.Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
