import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import qubitfit.circuit as circuit_mod
from qubitfit import CircuitParams, run_reproduction


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


def scale_amplitudes(monkeypatch, factor):
    """Scale the simulator's per-qubit amplitudes: its states and its output both move.

    Every workspace's amplitude step ends by scaling its amplitudes by the
    module constant ``_SCALE``, which it reads at call time, so scaling the
    constant scales every amplitude pair; the patch holds no workspace.
    """
    scaled = np.array(circuit_mod._SCALE * factor)
    scaled.setflags(write=False)
    monkeypatch.setattr(circuit_mod, "_SCALE", scaled)
