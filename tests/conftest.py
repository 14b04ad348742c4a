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


def scale_amplitudes(monkeypatch, factor):
    """Scale the simulator's per-qubit amplitudes: its states and its output both move."""
    real = circuit_mod._amplitudes

    def scaled(v, xs):
        p, pair_shape = real(v, xs)
        return p * factor, pair_shape

    monkeypatch.setattr(circuit_mod, "_amplitudes", scaled)
