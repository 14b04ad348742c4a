"""Importing the package loads nothing it does not use, and its namespace is lazy.

Every CLI call is a cold start. `xml.sax.saxutils` alone once pulled in
`urllib.request`, `http.client`, `email`, `ssl` and `socket`, and
`importlib.resources` pulls in `zipfile` and `tempfile`; the package uses
none of them. `import qubitfit` loads no submodule and no numpy: each public
name loads its module on first use, so the CLI runs code before numpy loads.
"""

import subprocess
import sys

import pytest

import qubitfit

from conftest import child_env

# reproduce forks with os alone: no process pool
UNUSED = ("xml", "urllib", "http", "email", "ssl", "socket", "zipfile", "importlib.resources",
          "multiprocessing", "concurrent")


def _added_modules(statement: str, preload: str = "numpy") -> list[str]:
    """The modules that ``statement`` loads in a fresh interpreter that has imported ``preload``."""
    probe = (
        f"import sys; import {preload}; before = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - before))"
    )
    return subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    ).stdout.split()


def test_cli_import_adds_no_unused_stdlib_package():
    added = _added_modules("import qubitfit.cli")
    assert "qubitfit.cli" in added  # a fresh interpreter really imported it
    unused = [m for m in added if any(m == p or m.startswith(p + ".") for p in UNUSED)]
    assert unused == []


def test_library_import_loads_no_cli():
    # a library user never parses a command line, so every public name together
    # pays for no parser
    added = _added_modules("from qubitfit import *")
    assert "qubitfit.reproduce" in added
    assert "argparse" not in added
    assert "qubitfit.cli" not in added
    # nor for a process pool, nor for signal: reproduce forks with os alone
    # and loads signal only to kill a child after a failure
    assert [m for m in added if m.split(".")[0] in ("multiprocessing", "concurrent", "signal")] == []


def test_package_import_loads_no_submodule_and_no_numpy():
    added = _added_modules("import qubitfit", preload="sys")
    assert "qubitfit" in added
    assert [m for m in added if m == "numpy" or m.startswith(("numpy.", "qubitfit."))] == []


def test_every_public_name_is_its_defining_modules_object():
    for name in qubitfit.__all__:
        value = getattr(qubitfit, name)
        assert value.__module__.startswith("qubitfit.")
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(qubitfit.__all__) <= set(dir(qubitfit))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qubitfit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qubitfit.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qubitfit.no_such_name
    assert not hasattr(qubitfit, "no_such_name")
    with pytest.raises(ImportError):
        from qubitfit import no_such_name  # noqa: F401
