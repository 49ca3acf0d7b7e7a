"""Every module under ``src/repro`` imports cleanly in a fresh interpreter.

Each import runs in its own subprocess, so a circular import that only
bites when a module is imported first cannot hide behind the modules
an earlier test already loaded.
"""

import os
import pathlib
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(_SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = sorted(_module_name(path) for path in (_SRC / "repro").rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


def test_service_package_is_covered():
    assert {
        "repro.service",
        "repro.service.chaos",
        "repro.service.client",
        "repro.service.server",
        "repro.service.store",
    } <= set(MODULES)
