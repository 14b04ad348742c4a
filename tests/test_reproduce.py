import errno
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from qubitfit import get_target, make_grid, performance_index, published_params
from qubitfit import reproduce
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
