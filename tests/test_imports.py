"""Importing the package loads nothing beyond numpy and what the package uses.

Every CLI call is a cold start. `xml.sax.saxutils` alone once pulled in
`urllib.request`, `http.client`, `email`, `ssl` and `socket`, and
`importlib.resources` pulls in `zipfile` and `tempfile`; the package uses
none of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import qubitfit

SRC = Path(qubitfit.__file__).resolve().parents[1]

# reproduce forks with os alone: no process pool
UNUSED = ("xml", "urllib", "http", "email", "ssl", "socket", "zipfile", "importlib.resources",
          "multiprocessing", "concurrent")


def _added_modules(module: str) -> list[str]:
    """The modules that importing ``module`` after numpy loads in a fresh interpreter."""
    probe = (
        f"import sys; import numpy; before = set(sys.modules); import {module}; "
        "print(*sorted(set(sys.modules) - before))"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    added = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert module in added  # a fresh interpreter really imported it
    return added


def test_cli_import_adds_no_unused_stdlib_package():
    added = _added_modules("qubitfit.cli")
    unused = [m for m in added if any(m == p or m.startswith(p + ".") for p in UNUSED)]
    assert unused == []


def test_library_import_loads_no_cli():
    # a library user never parses a command line, so `import qubitfit` pays for no parser
    added = _added_modules("qubitfit")
    assert "argparse" not in added
    assert "qubitfit.cli" not in added
    # nor for a process pool, nor for signal: reproduce forks with os alone
    # and loads signal only to kill a child after a failure
    assert [m for m in added if m.split(".")[0] in ("multiprocessing", "concurrent", "signal")] == []
