"""The three workloads, the inputs each makes from its seed, and their output checks.

Every workload is a closed loop driven from one thread: ``prepare`` makes
the next job (untimed), ``execute`` runs it (timed), ``check`` returns one
entry per operation, ``None`` when the output is right and a reason when
it is not, and removes the job's files. ``execute_inprocess`` is the
variant the traced run uses; it differs from ``execute`` only for ``cli``,
whose timed unit is a fresh process that the tracer cannot see into.

The package is reached through module attributes looked up at call time
(``reproduce.run_reproduction``, ``verify.run_suites``, ``cli.main``), so
the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qubitfit import analytic, cli, fileio, objective, reproduce, verify
from qubitfit.circuit import CircuitParams
from qubitfit.reproduce import (
    DEFAULT_ITERATIONS,
    DEFAULT_N,
    DEFAULT_RESTARTS,
    DEFAULT_X0,
    EXPERIMENT_TARGETS,
    RETRAINED_THRESHOLD,
)

from measure import python_argv, run_child

SELFCHECK_TRIALS = 2000
CLI_FIT_ITERATIONS = 200
CLI_FIT_RESTARTS = 2
CLI_KINDS = ("coeffs", "eval", "fit")
FIT_ARTIFACTS = ("{t}.params", "{t}_run.csv", "{t}_trace.csv", "{t}_summary.txt", "{t}.svg")


def child_env(src: Path) -> dict[str, str]:
    """Environment of a child interpreter: the checkout's package, no seed override."""
    env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV}
    env["PYTHONPATH"] = str(src)
    return env


def _fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


def cli_main(argv: list[str], workdir: Path) -> tuple[int, str]:
    """``cli.main`` in this process, run in ``workdir`` as a child would be: (exit code, stdout)."""
    buf = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)  # the CLI reads ./qubitfit.conf
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        os.chdir(here)
    return rc, buf.getvalue()


class Workload:
    """What the three workloads share; see the module docstring."""

    ops_per_unit = 1
    runs_in_child = False

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def traced_batch(self) -> int:
        """Jobs in one traced unit."""
        return 1

    def warm_up(self) -> None:
        self.probe()

    def probe(self) -> None:
        probe(self.workdir, self.seed)

    def execute_inprocess(self, job):
        return self.execute(job)


class Train(Workload):
    """``run_reproduction`` at the paper budget: 3 targets x 10 restarts x 5000 iterations.

    One job is one unit; one operation is one retrained target. Every
    unit of a run uses the same seed, so its parameters must repeat.
    """

    ops_per_unit = len(EXPERIMENT_TARGETS)

    def __init__(self, workdir: Path, seed: int, iterations: int = DEFAULT_ITERATIONS,
                 restarts: int = DEFAULT_RESTARTS, thresholds: dict = RETRAINED_THRESHOLD) -> None:
        super().__init__(workdir, seed)
        self.iterations = iterations
        self.restarts = restarts
        self.thresholds = thresholds
        self.reference: dict[str, np.ndarray] = {}
        self.j_total: float | None = None

    def prepare(self) -> Path:
        return _fresh_dir(self.workdir)

    def execute(self, out: Path):
        return reproduce.run_reproduction(out, seed=self.seed, iterations=self.iterations,
                                          restarts=self.restarts)

    def check(self, out: Path, report) -> list[str | None]:
        shutil.rmtree(out, ignore_errors=True)
        if self.j_total is None:
            self.j_total = sum(report.fits[t].j_final for t in EXPERIMENT_TARGETS)
        return [self.check_target(report, t) for t in EXPERIMENT_TARGETS]

    def check_target(self, report, target: str) -> str | None:
        fit = report.fits[target]
        params = fit.best.as_vector()
        first = self.reference.setdefault(target, params)
        if not fit.j_final <= self.thresholds[target]:
            return f"{target}: J={fit.j_final!r} above threshold {self.thresholds[target]!r}"
        if not report.all_passed:
            return f"{target}: report.all_passed is false"
        if fit.evals != self.restarts * (self.iterations + 1):
            return f"{target}: evals={fit.evals}, expected {self.restarts * (self.iterations + 1)}"
        if not np.array_equal(params, first):
            return f"{target}: params differ from the first unit of seed {self.seed}"
        return None

    def work(self, report) -> int:
        return sum(fit.evals for fit in report.fits.values())


class Selfcheck(Workload):
    """One ``run_suites(SELFCHECK_TRIALS, seed)`` call per unit; one operation per call."""

    def __init__(self, workdir: Path, seed: int, trials: int = SELFCHECK_TRIALS) -> None:
        super().__init__(workdir, seed)
        self.trials = trials

    def prepare(self) -> None:
        return None

    def execute(self, _job):
        return verify.run_suites(self.trials, self.seed)

    def check(self, _job, results) -> list[str | None]:
        names = tuple(r.name for r in results)
        if names != verify.SUITE_NAMES:
            return [f"suites {names}, expected {verify.SUITE_NAMES}"]
        bad = [f"{r.name}: {r.detail}" for r in results if not r.passed or r.trials != self.trials]
        return ["; ".join(bad) if bad else None]

    def work(self, _results) -> int:
        return self.trials


@dataclass
class CliJob:
    kind: str
    target: str
    argv: list[str]
    out: Path


class Cli(Workload):
    """Fresh ``python -m qubitfit.cli`` processes, one at a time.

    The mix rotates through the three bundled targets; per target it runs
    ``coeffs`` and ``eval`` (reads) and a small ``fit`` (writes params, run
    CSV, trace CSV, summary and SVG). One operation is one invocation.
    """

    runs_in_child = True

    def __init__(self, workdir: Path, seed: int, src: Path,
                 iterations: int = CLI_FIT_ITERATIONS, restarts: int = CLI_FIT_RESTARTS) -> None:
        super().__init__(workdir, seed)
        self.iterations = iterations
        self.restarts = restarts
        self.env = child_env(src)
        self.mix = [(kind, t) for t in EXPERIMENT_TARGETS for kind in CLI_KINDS]
        self.next = 0
        self.first_fit: dict[str, dict[str, bytes]] = {}
        # inputs: the bundled parameter sets moved by a seeded perturbation
        rng = np.random.default_rng(seed)
        grid = objective.make_grid(DEFAULT_N, DEFAULT_X0)
        self.params_file: dict[str, Path] = {}
        self.expected: dict[tuple[str, str], str] = {}
        for t in EXPERIMENT_TARGETS:
            vector = reproduce.published_params(t).as_vector() + rng.normal(0.0, 0.05, 6)
            path = workdir / f"input_{t}.params"
            path.write_text(fileio.format_params(CircuitParams.from_vector(vector)), encoding="utf-8")
            self.params_file[t] = path
            params = fileio.parse_params(path.read_text(encoding="utf-8"))
            coeffs = analytic.cubic_coefficients(params).as_array()
            self.expected["coeffs", t] = "".join(
                f"{name}={float(v)!r}\n" for name, v in zip(("a0", "a1", "a2", "a3"), coeffs))
            target = objective.get_target(t)
            self.expected["eval", t] = (
                f"J={objective.performance_index(params, target, grid)!r}\n"
                f"max_error={objective.max_pointwise_error(params, target, grid)!r}\n")

    def traced_batch(self) -> int:
        return len(self.mix)

    def warm_up(self) -> None:
        job = self.prepare()
        self.execute(job)
        shutil.rmtree(job.out, ignore_errors=True)
        self.next = 0

    def prepare(self) -> CliJob:
        kind, t = self.mix[self.next % len(self.mix)]
        self.next += 1
        out = _fresh_dir(self.workdir)
        if kind == "coeffs":
            argv = ["coeffs", str(self.params_file[t])]
        elif kind == "eval":
            argv = ["eval", str(self.params_file[t]), "--target", t, "--out-dir", str(out)]
        else:
            argv = ["fit", "--target", t, "--iterations", str(self.iterations),
                    "--restarts", str(self.restarts), "--seed", str(self.seed), "--out-dir", str(out)]
        return CliJob(kind, t, argv, out)

    def execute(self, job: CliJob) -> tuple[int, str]:
        proc = run_child(python_argv("-m", "qubitfit.cli", *job.argv), cwd=self.workdir, env=self.env)
        return proc.returncode, proc.stdout

    def execute_inprocess(self, job: CliJob) -> tuple[int, str]:
        return cli_main(job.argv, self.workdir)

    def check(self, job: CliJob, outcome: tuple[int, str]) -> list[str | None]:
        try:
            return [self.check_outcome(job, *outcome)]
        finally:
            shutil.rmtree(job.out, ignore_errors=True)

    def check_outcome(self, job: CliJob, rc: int, stdout: str) -> str | None:
        what = f"{job.kind} {job.target}"
        if rc != 0:
            return f"{what}: exit code {rc}"
        if job.kind != "fit":
            if stdout != self.expected[job.kind, job.target]:
                return f"{what}: stdout {stdout!r} differs from the in-process result"
            return None
        artifacts = {}
        for pattern in FIT_ARTIFACTS:
            path = job.out / pattern.format(t=job.target)
            if not path.is_file():
                return f"{what}: missing {path.name}"
            artifacts[path.name] = path.read_bytes()
        first = self.first_fit.setdefault(job.target, artifacts)
        if first is artifacts:
            summary = fileio.parse_keyvals(artifacts[f"{job.target}_summary.txt"].decode("utf-8"))
            if int(summary.get("evals", -1)) != self.restarts * (self.iterations + 1):
                return f"{what}: summary {summary}"
        changed = sorted(name for name in first if artifacts[name] != first[name])
        if changed:
            return f"{what}: {', '.join(changed)} differ from the first fit of seed {self.seed}"
        return None

    def work(self, _outcome) -> int:
        return 1


def probe(workdir: Path, seed: int) -> None:
    """A small fixed pass through every layer, run in each traced unit.

    It makes every per-layer metric a measured value on every workload,
    also for layers the workload itself never calls; its call counts are
    the same on every workload and every run.
    """
    out = _fresh_dir(workdir)
    try:
        params = out / "probe.params"
        params.write_text(fileio.format_params(reproduce.published_params("gaussian")), encoding="utf-8")
        for argv in (["coeffs", str(params)],
                     ["eval", str(params), "--target", "gaussian", "--out-dir", str(out)],
                     ["fit", "--target", "gaussian", "--iterations", "100", "--restarts", "2",
                      "--seed", str(seed), "--out-dir", str(out)]):
            rc, _ = cli_main(argv, workdir)
            if rc != 0:
                raise RuntimeError(f"probe: qubitfit {' '.join(argv)} exited with {rc}")
        if not all(r.passed for r in verify.run_suites(20, seed)):
            raise RuntimeError("probe: run_suites(20) failed")
        reproduce.run_reproduction(out / "reproduce", seed=seed, iterations=20, restarts=1)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def make(name: str, workdir: Path, seed: int, src: Path) -> Workload:
    if name == "cli":
        return Cli(workdir, seed, src)
    return {"train": Train, "selfcheck": Selfcheck}[name](workdir, seed)
