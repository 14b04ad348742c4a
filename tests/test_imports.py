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

UNUSED = ("xml", "urllib", "http", "email", "ssl", "socket", "zipfile", "importlib.resources")

PROBE = (
    "import sys; import numpy; before = set(sys.modules); import qubitfit.cli; "
    "print(*sorted(set(sys.modules) - before))"
)


def test_cli_import_adds_no_unused_stdlib_package():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    added = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "qubitfit.cli" in added  # a fresh interpreter really imported the package
    unused = [m for m in added if any(m == p or m.startswith(p + ".") for p in UNUSED)]
    assert unused == []
