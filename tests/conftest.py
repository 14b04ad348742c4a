import ctypes
import errno
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import qubitfit.chemotaxis as chemotaxis_mod
import qubitfit.circuit as circuit_mod
import qubitfit.fileio as fileio_mod
from qubitfit import CircuitParams, run_reproduction

SRC = Path(circuit_mod.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def child_env(**overrides) -> dict:
    """``os.environ`` plus ``overrides`` for a fresh interpreter that finds the
    imported copy of the package, and these helpers, ahead of ``PYTHONPATH``."""
    path = [str(SRC), str(TESTS)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **overrides)


def blas_core() -> str:
    """The core whose kernels numpy's bundled OpenBLAS runs here, or ``"unknown"``; never raises.

    ``numpy.show_config()`` lists the build (``DYNAMIC_ARCH`` and its
    baseline), not the core that ran: OpenBLAS picks its kernels, the
    index's ``ddot`` among them, per CPU when it loads, and
    ``OPENBLAS_CORETYPE`` overrides the pick. The library names its pick
    through its ``*_get_corename*`` symbol, read here through ctypes.
    """
    root = Path(np.__file__).resolve().parent
    for lib in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(root.glob(".dylibs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return (corename() or b"unknown").decode(errors="replace")
    return "unknown"


def random_params(rng: np.random.Generator) -> CircuitParams:
    return CircuitParams(
        float(rng.uniform(-np.pi, np.pi)),
        float(rng.uniform(-np.pi, np.pi)),
        rng.uniform(-2.0, 2.0, 4),
    )


@pytest.fixture(scope="session")
def reproduction_report(tmp_path_factory):
    """One full-scale reproduction run (seed 42, reference budget), shared
    by the acceptance criteria and the effectiveness tests."""
    out = tmp_path_factory.mktemp("reproduction")
    return run_reproduction(out, seed=42)


def fill_disk_halfway(monkeypatch, name_prefix: str = "") -> None:
    """Fail every ``fileio`` write to a file whose name starts with
    ``name_prefix`` as a full disk would: ENOSPC after half of the text is
    written. Other files open as usual."""

    def half_then_full(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if not os.path.basename(file).startswith(name_prefix):
            return fh
        write = fh.write

        def fail(text):
            write(text[: len(text) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device", file)

        fh.write = fail
        return fh

    monkeypatch.setattr(fileio_mod, "open", half_then_full, raising=False)


def start_at(monkeypatch, params: CircuitParams) -> None:
    """Start every optimizer restart at ``params``.

    A restart starts at the module's ``random_vector`` draw; one that
    returns ``params`` and leaves the generator as it found it gives the
    run this start and the restart's own steps.
    """
    monkeypatch.setattr(chemotaxis_mod, "random_vector", lambda rng: params.as_vector())


def workspace_rows() -> np.ndarray:
    """Raw rows that one kernel workspace must evaluate as if each came alone.

    Finite rows, then NaN and +-inf in theta and in g, then entries near
    1e308 (squares and sums that overflow), then finite rows again.
    """
    inf, nan = np.inf, np.nan
    finite = [
        [0.4, -0.7, 0.5, -1.2, 1.8, -0.3],
        [-2.9, 3.1, -1.9, 0.2, 1.1, 1.7],
    ]
    rows = finite + [
        [nan, -0.7, 0.5, -1.2, 1.8, -0.3],
        [0.4, inf, 0.5, -1.2, 1.8, -0.3],
        [-inf, 0.2, 0.5, -1.2, 1.8, -0.3],
        [0.4, -0.7, nan, -1.2, 1.8, -0.3],
        [0.4, -0.7, 0.5, inf, 1.8, -0.3],
        [0.4, -0.7, 0.5, -1.2, -inf, inf],
        [1e308, -1.7e308, 0.5, -1.2, 1.8, -0.3],
        [0.4, -0.7, 1.7e308, 1.7e308, 1.7e308, 1.7e308],
        [1.7e308, 1e308, -1e308, 1.7e308, -1.7e308, 1e308],
    ] + finite[::-1] + finite
    return np.array(rows)


class _ScaledTrig:
    """numpy, but with ``cos`` and ``sin`` scaling their output by ``factor``."""

    def __init__(self, factor):
        self._factor = factor

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, out):
        return np.multiply(np.cos(x, out), self._factor, out)

    def sin(self, x, out):
        return np.multiply(np.sin(x, out), self._factor, out)


def scale_amplitudes(monkeypatch, factor):
    """Scale the simulator's per-qubit amplitudes: its states and its output both move.

    Every amplitude is the output of a ``cos`` or ``sin`` that a workspace
    binds from the module's ``np`` when it is built, so a module ``np``
    whose ``cos`` and ``sin`` scale their output scales every amplitude
    pair of the workspaces built while the patch holds; the patch holds
    no workspace.
    """
    monkeypatch.setattr(circuit_mod, "np", _ScaledTrig(factor))
