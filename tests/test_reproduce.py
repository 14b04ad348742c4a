from types import SimpleNamespace

import numpy as np
import pytest

from qubitfit import get_target, make_grid, performance_index, published_params
from qubitfit import reproduce
from qubitfit.reproduce import (
    EXPERIMENT_TARGETS,
    PUBLISHED_THRESHOLD,
    REFERENCE_INDEX,
    RETRAINED_THRESHOLD,
    ReportRow,
    run_reproduction,
)


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


def test_thresholds_cover_all_targets():
    for table in (REFERENCE_INDEX, PUBLISHED_THRESHOLD, RETRAINED_THRESHOLD):
        assert set(table) == set(EXPERIMENT_TARGETS)


def test_report_row_pass_logic():
    row = ReportRow("published", "quadratic", 0.09, 0.1, 0.03, 0.1)
    assert row.passed
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

    table = report.table_path.read_text(encoding="utf-8")
    for target_id in EXPERIMENT_TARGETS:
        assert f"| published | {target_id} |" in table
        assert f"| retrained | {target_id} |" in table
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
