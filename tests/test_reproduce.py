import errno
import os
import signal
import time
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from qubitfit import get_target, make_grid, performance_index, published_params
from qubitfit import reproduce
from qubitfit.cli import main as cli_main
from qubitfit.reproduce import (
    EXPERIMENT_TARGETS,
    PLOT_POINTS,
    PUBLISHED_THRESHOLD,
    REFERENCE_INDEX,
    RETRAINED_THRESHOLD,
    ReportRow,
    run_reproduction,
    write_comparison_plot,
)

from conftest import fill_disk_halfway


def test_published_params_are_the_reference_values():
    q = published_params("quadratic")
    assert (q.theta1, q.theta2) == (1.373, 1.770)
    assert np.array_equal(q.g, np.array([-0.081, 2.260, 2.272, 4.954]))

    g = published_params("gaussian")
    assert (g.theta1, g.theta2) == (0.497, -0.498)
    assert np.array_equal(g.g, np.array([-0.088, 1.152, 1.711, -0.089]))

    s = published_params("sigmoid")
    assert (s.theta1, s.theta2) == (0.266, 0.069)
    assert np.array_equal(s.g, np.array([-0.885, 0.055, 0.466, 0.931]))


def test_published_params_rejects_unknown_target():
    with pytest.raises(ValueError):
        published_params("custom")


def test_published_index_meets_reference_slack():
    # the bundled parameter sets must land near their documented index
    # on the standard grid, with slack for their 3-decimal precision
    grid = make_grid(30, 1.5)
    for target_id in EXPERIMENT_TARGETS:
        j = performance_index(published_params(target_id), get_target(target_id), grid)
        assert j <= PUBLISHED_THRESHOLD[target_id], (target_id, j)
        # and within the same order of magnitude as the reference value
        assert j <= 12 * REFERENCE_INDEX[target_id], (target_id, j)


# the reference index of each bundled parameter set and the acceptance
# thresholds, as report.md prints them: (reference J, published, retrained)
DOCUMENTED = {
    "quadratic": ("0.03", "0.1", "0.05"),
    "gaussian": ("0.005", "0.02", "0.02"),
    "sigmoid": ("0.006", "0.02", "0.02"),
}


def test_thresholds_cover_all_targets():
    for table in (REFERENCE_INDEX, PUBLISHED_THRESHOLD, RETRAINED_THRESHOLD):
        assert set(table) == set(EXPERIMENT_TARGETS)


def test_a_comparison_plot_draws_both_curves_left_to_right(tmp_path):
    path = tmp_path / "quadratic.svg"
    write_comparison_plot(path, get_target("quadratic"), published_params("quadratic"))
    polylines = ET.fromstring(path.read_text(encoding="utf-8")).findall("{http://www.w3.org/2000/svg}polyline")
    assert [p.get("stroke") for p in polylines] == ["#cc0000", "#000000"]  # target, then circuit
    for p in polylines:
        xs = [float(pair.split(",")[0]) for pair in p.get("points").split()]
        assert len(xs) == PLOT_POINTS
        assert all(a < b for a, b in zip(xs, xs[1:]))


def test_report_row_pass_logic():
    row = ReportRow("published", "quadratic", 0.09, 0.1, 0.03, 0.1)
    assert row.passed
    # an index at the threshold meets it
    assert ReportRow("published", "quadratic", 0.1, 0.1, 0.03, 0.1).passed
    assert not ReportRow("published", "quadratic", 0.11, 0.1, 0.03, 0.1).passed


def test_run_reproduction_structure(tmp_path):
    report = run_reproduction(tmp_path, seed=11, iterations=120, restarts=2)
    assert len(report.rows) == 6
    kinds = [row.kind for row in report.rows]
    assert kinds.count("published") == 3
    assert kinds.count("retrained") == 3
    assert set(report.fits) == set(EXPERIMENT_TARGETS)
    assert report.retrain_seconds > 0.0
    assert report.table_path == tmp_path / "report.md"

    lines = report.table_path.read_text(encoding="utf-8").splitlines()
    for target_id in EXPERIMENT_TARGETS:
        reference, published, retrained = DOCUMENTED[target_id]
        for kind, threshold in (("published", published), ("retrained", retrained)):
            line = next(line for line in lines if line.startswith(f"| {kind} | {target_id} |"))
            assert line.split(" | ")[4:6] == [reference, threshold], line
        assert (tmp_path / f"{target_id}.svg").is_file()
        assert (tmp_path / f"{target_id}_published.svg").is_file()
        assert (tmp_path / f"{target_id}.params").is_file()

    for row in report.rows:
        if row.kind == "published":
            assert row.passed, (row.target_id, row.j)
    assert report.all_passed == all(row.passed for row in report.rows)


def test_report_bytes_do_not_depend_on_wall_time(tmp_path, monkeypatch):
    # the same seed must write the same report.md however long training took
    tables = []
    for elapsed in (1.0, 99.0):
        ticks = iter((0.0, elapsed))
        monkeypatch.setattr(reproduce, "time", SimpleNamespace(perf_counter=lambda t=ticks: next(t)))
        report = run_reproduction(tmp_path / f"k{elapsed:g}", seed=3, iterations=20, restarts=1)
        assert report.retrain_seconds == elapsed
        tables.append(report.table_path.read_bytes())
    assert tables[0] == tables[1]


def test_a_report_write_that_fails_partway_keeps_the_old_report(tmp_path, monkeypatch):
    # the disk fills halfway through report.md, after every other artifact is written
    path = tmp_path / "report.md"
    path.write_bytes(b"keep\n")
    fill_disk_halfway(monkeypatch, "report.md")
    with pytest.raises(OSError) as info:
        run_reproduction(tmp_path, seed=3, iterations=20, restarts=1)
    assert info.value.errno == errno.ENOSPC
    assert info.value.filename == str(path)  # the report, not its temporary file
    assert path.read_bytes() == b"keep\n"
    artifacts = {f"{t}{suffix}" for t in EXPERIMENT_TARGETS for suffix in (".params", ".svg", "_published.svg")}
    assert {p.name for p in tmp_path.iterdir()} == artifacts | {"report.md"}


# Retraining forks one child per target after the first on a host with two
# or more usable CPUs, and runs in process on one. The tests below force
# each side by patching the CPU count, so they run the same on any host.

def force_cpus(monkeypatch, cpus: int) -> list[int]:
    """Make run_reproduction see ``cpus`` usable CPUs; returns the list of pids os.fork returns."""
    monkeypatch.setattr(reproduce, "_usable_cpus", lambda: cpus)
    forks: list[int] = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(reproduce.os, "fork", counted_fork)
    return forks


def fail_target(monkeypatch, target_id: str, fail) -> None:
    """Run ``fail()`` in place of the optimizer for ``target_id``; the other targets train as usual."""
    optimize = reproduce.optimize

    def patched(target, grid, cfg):
        if target.id == target_id:
            fail()
        return optimize(target, grid, cfg)

    monkeypatch.setattr(reproduce, "optimize", patched)


def no_sigmoid():
    raise ValueError("no sigmoid")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fit_bits(fit):
    return (
        fit.best.as_vector().tobytes(),
        fit.best.g.flags.writeable,
        fit.j_final.hex(),
        tuple((it, j.hex()) for it, j in fit.j_trace),
        fit.evals,
        fit.max_error.hex(),
    )


def test_forked_retraining_equals_in_process_retraining_byte_for_byte(tmp_path, monkeypatch):
    runs = {}
    for cpus in (2, 1):
        forks = force_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        report = run_reproduction(out, seed=8, iterations=60, restarts=2)
        # two children on two CPUs; on one, os.fork is never called
        assert len(forks) == (2 if cpus == 2 else 0)
        assert list(report.fits) == list(EXPERIMENT_TARGETS)
        for fit in report.fits.values():
            assert fit.evals == 2 * (60 + 1)
        runs[cpus] = (
            {t: fit_bits(fit) for t, fit in report.fits.items()},
            {p.name: p.read_bytes() for p in sorted(out.iterdir())},
            report.rows,
        )
    assert runs[2] == runs[1]
    assert len(runs[2][1]) == 10  # report.md and three params, svg and published svg
    assert_no_child_left()


def test_a_childs_value_error_reaches_the_caller_and_no_child_is_left(tmp_path, monkeypatch):
    forks = force_cpus(monkeypatch, 2)
    fail_target(monkeypatch, "sigmoid", no_sigmoid)
    with pytest.raises(ValueError, match="^no sigmoid$"):
        run_reproduction(tmp_path, seed=3, iterations=20, restarts=1)
    assert len(forks) == 2
    assert_no_child_left()
    assert not (tmp_path / "report.md").exists()


def test_a_killed_child_is_a_one_line_error_naming_its_target(tmp_path, monkeypatch):
    force_cpus(monkeypatch, 2)
    fail_target(monkeypatch, "gaussian", kill_self)
    with pytest.raises(ChildProcessError) as info:
        run_reproduction(tmp_path, seed=3, iterations=20, restarts=1)
    assert str(info.value) == f"retraining gaussian: its process was ended by signal {int(signal.SIGKILL)}"
    assert_no_child_left()


def test_a_fork_that_fails_is_a_one_line_error_and_the_started_child_is_reaped(tmp_path, monkeypatch):
    forks = force_cpus(monkeypatch, 2)
    fork = reproduce.os.fork

    def second_fails():
        if forks:  # gaussian's child has started
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(reproduce.os, "fork", second_fails)
    with pytest.raises(ChildProcessError) as info:
        run_reproduction(tmp_path, seed=3, iterations=20, restarts=1)
    assert str(info.value) == (
        f"retraining sigmoid: cannot start its process: [Errno {errno.EAGAIN}] Resource temporarily unavailable")
    assert len(forks) == 1
    assert_no_child_left()


def test_a_failure_in_the_parent_kills_and_reaps_the_running_children(tmp_path, monkeypatch):
    # the children would train for a minute; the first target, in this
    # process, is interrupted at once
    force_cpus(monkeypatch, 2)
    optimize = reproduce.optimize

    def patched(target, grid, cfg):
        if target.id == EXPERIMENT_TARGETS[0]:
            raise KeyboardInterrupt
        time.sleep(60)
        return optimize(target, grid, cfg)

    monkeypatch.setattr(reproduce, "optimize", patched)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_reproduction(tmp_path, seed=3, iterations=20, restarts=1)
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


@pytest.mark.parametrize("fail, message", [
    (no_sigmoid, "error: no sigmoid\n"),
    (kill_self, f"error: retraining sigmoid: its process was ended by signal {int(signal.SIGKILL)}\n"),
])
def test_reproduce_cli_with_a_failing_child_exits_2_with_one_stderr_line(
    fail, message, tmp_path, monkeypatch, capsys
):
    force_cpus(monkeypatch, 2)
    fail_target(monkeypatch, "sigmoid", fail)
    rc = cli_main(["reproduce", "--iterations", "20", "--restarts", "1", "--out-dir", str(tmp_path)])
    assert (rc, capsys.readouterr()) == (2, ("", message))
    assert_no_child_left()
