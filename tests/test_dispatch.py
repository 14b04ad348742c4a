"""The kernel, the state and a training run give the same bytes at every numpy SIMD level.

numpy picks each ufunc's loop from the CPU features it finds at import,
and ``NPY_DISABLE_CPU_FEATURES`` switches dispatch targets off for one
process. Each level this machine reaches runs in its own child process,
which hashes the kernel's output on :func:`conftest.workspace_rows` and on
random rows, the index's J on both through a target-bound workspace, a
:func:`prepare_state` batch and a short quadratic fit. Only ``sin``, ``cos`` and the arithmetic
ufuncs are pinned here: the gaussian and sigmoid targets go through
``np.exp`` and ``np.tanh``, whose bytes differ between levels.
"""

import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

CHILD = """
import hashlib, json
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from conftest import workspace_rows
from qubitfit import (
    OptimizerConfig, circuit_expectation_grid, get_target, make_grid, optimize, performance_index, prepare_state,
)
from qubitfit.circuit import Workspace

def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()

grid = make_grid(30, 1.5)
ws = Workspace((), grid)
rng = np.random.default_rng(2024)
rows = np.concatenate([rng.uniform(-np.pi, np.pi, (2000, 2)), rng.uniform(-2.0, 2.0, (2000, 4))], axis=1)
quadratic = get_target("quadratic")
bound = Workspace((), grid, quadratic.fn(grid))
with np.errstate(all="ignore"):
    special = [ws.expectation(v).copy() for v in workspace_rows()]
    index = [performance_index(v, quadratic, grid, bound) for v in np.concatenate([workspace_rows(), rows])]
fit = optimize(quadratic, grid, OptimizerConfig(iterations=200, restarts=2, seed=42))
print(json.dumps({
    "features": {t: bool(__cpu_features__[t]) for t in __cpu_dispatch__},
    "special_rows": digest(special),
    # each output is the workspace's buffer, so it is hashed before the next row overwrites it
    "random_rows": digest(ws.expectation(v) for v in rows),
    "index": digest([index]),
    "random_batch": digest([circuit_expectation_grid(rows[:, None, :], grid)]),
    "state": digest([prepare_state(rows, rng.uniform(-4.0, 4.0, 2000))]),
    "fit": digest([fit.best.as_vector(), [fit.j_final, fit.max_error, fit.evals],
                   [v for step in fit.j_trace for v in step]]),
}))
"""


def _levels():
    """Each level as the dispatch targets it switches off: from every target on to none above the baseline."""
    reached = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return [reached[i:] for i in range(len(reached), -1, -1)]


def _run_child(off):
    env = {k: v for k, v in child_env().items() if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    if off:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(off)
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_same_bytes_at_every_dispatch_level():
    if not any(t.startswith("X86_V") for t in __cpu_dispatch__):
        pytest.skip(
            f"numpy {np.__version__} on {platform.machine()} names its dispatch targets "
            f"{list(__cpu_dispatch__)}; the levels are cut at numpy 2's X86_V* names on x86-64"
        )
    levels = _levels()
    if len(levels) < 2:
        pytest.skip(f"no dispatch target above the baseline is on here: {list(__cpu_dispatch__)}")
    results = []
    for off in levels:
        got = _run_child(off)
        # the child really ran with exactly these targets off
        assert got.pop("features") == {t: bool(__cpu_features__[t]) and t not in off for t in __cpu_dispatch__}
        results.append(got)
    for off, got in zip(levels, results):
        assert got == results[0], f"bytes moved with {off} off"
