"""Every name the package and its modules export through __all__ resolves."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import besselsum

MODULES = ["besselsum"] + [
    f"besselsum.{info.name}" for info in pkgutil.iter_modules(besselsum.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)


def test_traced_benchmark_finds_every_name():
    # perfbench/spans.py wraps package functions and model methods by name,
    # so a renamed or removed one breaks the traced benchmark
    root = Path(__file__).resolve().parents[1]
    code = (f"import sys; sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]; "
            "import besselsum, spans; spans.install(spans.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
