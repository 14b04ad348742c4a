"""The program's outputs keep their bytes: SHA-256 hashes against a committed manifest.

``tests/identity.json`` holds one entry per machine key: the numpy
version, ``platform.machine()`` and numpy's active SIMD dispatch targets,
since ``np.exp`` and ``np.tanh`` (the gaussian and sigmoid targets and
their plots) give different last bits at different dispatch levels. An
entry hashes

* every artifact of ``reproduce`` at seed 42 (taken from the session's
  ``reproduction_report``, so no extra training),
* the stdout of ``qubitfit verify --trials 1000 --seed 42``,
* one short ``optimize`` run per target: best vector, trace, max error
  and evaluations.

The tests compare against the entry for their machine and skip, naming
the key, where there is none. They never write. Running this module as a
script writes the entry for the machine it runs on::

    PYTHONPATH=src python tests/test_identity.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qubitfit import OptimizerConfig, get_target, make_grid, optimize, run_reproduction
from qubitfit.cli import main

from conftest import blas_core

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

MANIFEST = Path(__file__).resolve().parent / "identity.json"
REPRODUCE_SEED = 42
VERIFY_ARGV = ["verify", "--trials", "1000", "--seed", "42"]
# (name, target id, polynomial coefficients) of the short optimize runs
FITS = [
    ("quadratic", "quadratic", None),
    ("gaussian", "gaussian", None),
    ("sigmoid", "sigmoid", None),
    ("custom 0.5,-1,0.25", "custom", (0.5, -1.0, 0.25)),
]
FIT_CONFIG = OptimizerConfig(iterations=300, restarts=2, seed=3)


def machine_key() -> str:
    active = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return f"numpy {np.__version__} {platform.machine()} {' '.join(active) or 'baseline'}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reproduce_hashes(out_dir: Path) -> dict:
    return {f"reproduce/{p.name}": _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}


def verify_hashes() -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(VERIFY_ARGV)
    return {"verify": _sha(f"exit {code}\n{stdout.getvalue()}".encode())}


def fit_hashes(name, target_id, poly) -> dict:
    fit = optimize(get_target(target_id, poly), make_grid(30, 1.5), FIT_CONFIG)
    trace = np.array(fit.j_trace, dtype=float)
    tail = np.array([fit.max_error, fit.evals], dtype=float)
    return {f"optimize/{name}": _sha(fit.best.as_vector().tobytes() + trace.tobytes() + tail.tobytes())}


def expected(names) -> dict:
    key = machine_key()
    entry = json.loads(MANIFEST.read_text(encoding="utf-8")).get(key)
    if entry is None:
        pytest.skip(f"no identity entry for {key!r}; write one with `python tests/test_identity.py`")
    return {name: entry[name] for name in names}


def test_reproduce_artifacts_keep_their_bytes(reproduction_report):
    got = reproduce_hashes(reproduction_report.table_path.parent)
    assert len(got) == 10
    assert got == expected(got)


def test_verify_output_keeps_its_bytes(tmp_path, monkeypatch):
    # the flags give every option that matters; an empty working directory
    # keeps a stray config file out
    monkeypatch.chdir(tmp_path)
    got = verify_hashes()
    assert got == expected(got)


@pytest.mark.parametrize(("name", "target_id", "poly"), FITS, ids=[f[0] for f in FITS])
def test_optimize_runs_keep_their_bytes(name, target_id, poly):
    # the index sums its squares with the BLAS ddot of the core OpenBLAS
    # picked at load time, which the machine key does not name
    got = fit_hashes(name, target_id, poly)
    assert got == expected(got), f"BLAS core {blas_core()}"


def write_entry() -> str:
    """Compute every hash on this machine and store them under its key."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "reproduction")
        run_reproduction(out, seed=REPRODUCE_SEED)
        entry = reproduce_hashes(out)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            entry.update(verify_hashes())
        finally:
            os.chdir(cwd)
    for fit in FITS:
        entry.update(fit_hashes(*fit))
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    manifest[machine_key()] = entry
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return machine_key()


if __name__ == "__main__":
    print(f"wrote the entry for {write_entry()!r} to {MANIFEST}", file=sys.stderr)
