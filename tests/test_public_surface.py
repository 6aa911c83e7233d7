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


def test_cli_import_does_not_load_scipy_integrate():
    """Laplace transforms are closed forms; nothing on the CLI path integrates."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, phidetect.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
