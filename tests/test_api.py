"""The public API: every name a module exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import relaysim

MODULES = ["relaysim"] + [f"relaysim.{m.name}" for m in pkgutil.iter_modules(relaysim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_import_leaves_process_pools_out():
    # only engine.pool_map starts a process pool, and it imports the pool when it does
    src = str(Path(relaysim.__file__).resolve().parents[1])
    code = "import sys, relaysim; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
