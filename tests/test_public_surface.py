import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import phidetect


def _modules():
    return [importlib.import_module(f"phidetect.{info.name}")
            for info in pkgutil.iter_modules(phidetect.__path__)]


def test_every_all_entry_resolves():
    for mod in [phidetect, *_modules()]:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


def test_package_reexports_only_public_module_names():
    tree = ast.parse(Path(phidetect.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"phidetect.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{alias.name} is not in {mod.__name__}.__all__"
            assert getattr(phidetect, alias.asname or alias.name) is getattr(mod, alias.name)


#: Every name the package re-exports; a new public name has to be added here.
REEXPORTS = {
    "BoundaryComparison", "CacheCorruptionError", "CalibrationTable", "Distribution",
    "DomainError", "Exponential", "ExponentialFamily", "Frechet", "Gumbel", "MixtureFamily", "MixtureSpec", "Normal", "PowerGridConfig",
    "PowerResult", "RNG_ID", "RegimeClassification", "SortedPValueSample", "TestOutcome",
    "Uniform", "Verdict", "beta_sharp_expfam", "beta_sharp_from_alpha",
    "beta_sharp_from_gamma", "boundary_comparison", "cache_load", "cache_path",
    "cache_store", "centering", "centering_offset", "classify", "diagnostic_H",
    "diagnostic_H_sparse", "ensure_tables", "gumbel_quantile", "h_exponent", "kappa",
    "log_likelihood_ratio", "mc_null_tables", "mixture_family", "phi", "power_sweep",
    "replicate_rng", "rho_dense", "rho_normal_sparse", "run_divergence_test", "run_lr_test",
    "sample_mixture", "scaled_statistic", "scaled_statistics", "signal_cdf_transformed",
    "stable_seed", "sup_statistic", "sup_statistic_values",
    "to_pvalues", "uniform_open", "wilson_interval", "write_power_csv", "write_power_json",
    "z_sup",
}


def test_reexported_names_are_the_listed_set():
    tree = ast.parse(Path(phidetect.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert len(names) == len(set(names)) == len(REEXPORTS) == 59
    assert set(names) == REEXPORTS


def test_every_top_level_import_is_used():
    """A name a module imports at top level is referenced in that module, so an
    import that only a deleted function used cannot linger."""
    for mod in _modules():
        tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                 for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= used, f"{mod.__name__} imports unused {sorted(bound - used)}"


def test_every_benchmark_wrapped_name_resolves(monkeypatch):
    """The benchmark's tracer looks up each (module, attr) of perfbench's
    ``layers.WRAPPED`` only in a traced run, so a name it wraps is checked here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    wrapped = importlib.import_module("layers").WRAPPED
    assert wrapped
    for mod, attr, *_ in wrapped:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} is gone"


def test_cli_import_does_not_load_scipy_integrate():
    """Laplace transforms are closed forms; nothing on the CLI path integrates."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, phidetect.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_defers_scipy_special_and_the_process_pool():
    """Only a normal law needs ``scipy.special``, and only workers > 1 a pool."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, phidetect.cli\n"
            "print([m in sys.modules for m in ('scipy.special', 'concurrent.futures')])\n"
            "phidetect.Normal().cdf(0.5)\n"
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[False, False]", "True"]
