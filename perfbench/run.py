"""qubitfit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train|selfcheck|cli --seed N --seconds S --trace 0|1

The package is loaded from ``src/`` beside this directory, never from an
installed copy. Prints a readable report, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full record (provenance, every sample, the layer map)
goes to ``perfbench/out/``, with the spans of a traced run beside it.

End-to-end times are in reference-host seconds (see ``measure.Timeline``);
the raw wall times are in the report and the record.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import measure
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
IMPORT_RUNS = 5

SETUP_CODE = (
    "import qubitfit\n"
    "from qubitfit.objective import make_grid\n"
    "from qubitfit.reproduce import DEFAULT_N, DEFAULT_X0, EXPERIMENT_TARGETS, published_params\n"
    "make_grid(DEFAULT_N, DEFAULT_X0)\n"
    "for t in EXPERIMENT_TARGETS:\n"
    "    published_params(t)\n"
)
IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qubitfit.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# per workload: the report's names for unit_s and work_per_s
UNIT_NAMES = {
    "train": ("train_s", "train_evals_per_s"),
    "selfcheck": ("selfcheck_s", "selfcheck_trials_per_s"),
    "cli": ("cli_p50_s", "cli_invocations_per_s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(UNIT_NAMES))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Ops:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, outcomes) -> None:
        for reason in outcomes:
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)


def run_unit(wl, ops: Ops, execute, timeline=None) -> int:
    """One job: prepare, execute (timed when a timeline is given), check. Returns its work."""
    job = wl.prepare()
    try:
        result = timeline.time(execute, job) if timeline else execute(job)
        outcomes, work = wl.check(job, result), wl.work(result)
    except Exception:
        # a crash, or a result of the wrong shape, fails every operation of the unit
        ops.record([traceback.format_exc(limit=3)] * wl.ops_per_unit)
        return 0
    ops.record(outcomes)
    return work


def fresh_interpreters(code: str, runs: int, env: dict) -> tuple[measure.Timeline, list[str]]:
    """Time ``python -c code`` in ``runs`` fresh interpreters; returns the timeline and their stdout."""
    stdout = []
    with measure.Timeline(child=True) as timeline:
        for _ in range(runs):
            proc = timeline.time(measure.run_child, measure.python_argv("-c", code), OUT, env)
            if proc.returncode != 0:
                raise RuntimeError(f"fresh interpreter failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
            stdout.append(proc.stdout)
    return timeline, stdout


def measure_untraced(wl, seconds: float, ops: Ops) -> dict:
    wl.warm_up()  # first calls and the file cache, untimed
    work = 0
    with measure.Timeline(child=wl.runs_in_child) as timeline:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            work += run_unit(wl, ops, wl.execute, timeline)
    scaled = timeline.scaled()
    return {
        "unit_s": measure.summary(scaled),
        "unit_raw_s": measure.summary(timeline.raw),
        "work": work,
        "work_per_s": work / sum(scaled),
        "work_per_raw_s": work / sum(timeline.raw),
        "unit_raw_samples": timeline.raw,
        "calib": timeline.calib,
        "calib_ref_s": timeline.calib_ref_s,
        "peak_rss_mb": measure.peak_rss_mb(children=wl.runs_in_child),
    }


def measure_traced(wl, seconds: float, ops: Ops, env: dict) -> tuple[dict, spans.Recorder]:
    """Alternate untraced and traced units; a unit is the workload's batch plus the probe."""
    rec = spans.Recorder()
    walls: dict[bool, list[float]] = {False: [], True: []}

    def unit() -> None:
        for _ in range(wl.traced_batch()):
            run_unit(wl, ops, wl.execute_inprocess)
        wl.probe()

    t_end = time.perf_counter() + seconds
    while not walls[True] or time.perf_counter() < t_end:
        for traced in (False, True):
            if traced:
                rec.unit_id = len(walls[True])
                rec.install()
            t0 = time.perf_counter()
            try:
                unit()
            finally:
                walls[traced].append(time.perf_counter() - t0)
                rec.uninstall()
    overhead = statistics.median(walls[True]) / statistics.median(walls[False])
    _, imports = fresh_interpreters(IMPORT_CODE, IMPORT_RUNS, env)
    body = {
        "layer_metrics": spans.layer_metrics(rec, len(walls[True]),
                                             statistics.median(map(float, imports)), overhead),
        "trace_checks": spans.trace_checks(rec),
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "spans": len(rec.name),
        "layer_map": [dict(zip(("name", "unit", "better", "moves", "flat_on"), row))
                      for row in spans.LAYER_METRICS],
    }
    return body, rec


def report_lines(workload: str, body: dict, wl) -> list[str]:
    """The untraced run's figures under the per-workload names, with units and sample counts."""
    unit_name, rate_name = UNIT_NAMES[workload]
    s, r = body["unit_s"], body["unit_raw_s"]
    lines = [
        f"{unit_name} = {s['median']:.4f} s (median of {s['samples']}; raw {r['median']:.4f} s)",
        f"{rate_name} = {body['work_per_s']:.6g} 1/s (raw {body['work_per_raw_s']:.6g} 1/s)",
    ]
    if s["tail"] is not None:
        lines.append(f"{workload}_tail_s = {s['tail']:.4f} s (p{s['tail_percentile']:g} of {s['samples']}; "
                     f"raw {r['tail']:.4f} s)")
    if workload == "train":
        lines.append(f"train_j_total = {wl.j_total!r} index (first unit)")
    lines.append(f"peak_rss_mb = {body['peak_rss_mb']:.1f} MB")
    lines.append(f"calib_s = {statistics.median(body['calib']):.6f} s "
                 f"(one calibration unit; reference {body['calib_ref_s']} s)")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qubitfit" / "__init__.py").is_file():
        print(f"error: no qubitfit package at {SRC}; run from a qubitfit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qubitfit
    import workloads

    if Path(qubitfit.__file__).resolve().parent != (SRC / "qubitfit").resolve():
        print(f"error: imported qubitfit from {qubitfit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = workloads.child_env(SRC)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    ops = Ops()
    rec = None
    try:
        setup, _ = fresh_interpreters(SETUP_CODE, SETUP_RUNS, env)
        wl = workloads.make(args.workload, workdir, args.seed, SRC)
        if args.trace:
            body, rec = measure_traced(wl, args.seconds, ops, env)
        else:
            body = measure_untraced(wl, args.seconds, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(setup.scaled())
    if "calib" not in body:  # a traced run: take the machine's calibration now
        body["calib"], body["calib_ref_s"] = [measure.calib_burst() for _ in range(10)], measure.CALIB_REF_S
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": measure.provenance(ROOT, args.seed, body["calib"], body["calib_ref_s"]),
        "setup_s": {"scaled": setup.scaled(), "raw": setup.raw},
        "ops": ops.attempted,
        "ops_failed": ops.failed,
        "failure_reasons": ops.reasons,
        **body,
    }
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
             f"setup_s = {setup_s:.4f} s (median of {SETUP_RUNS} fresh interpreters; "
             f"raw {statistics.median(setup.raw):.4f} s)"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if rec is not None:
        rec.save(OUT / f"spans-{stem}.npz")
        metrics = {name: {"value": body["layer_metrics"][name], "unit": unit}
                   for name, unit, *_ in spans.LAYER_METRICS}
        lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"trace checks: {body['trace_checks']}")
    else:
        values = {"setup_s": setup_s, "unit_s": body["unit_s"]["median"],
                  "work_per_s": body["work_per_s"], "peak_rss_mb": body["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines += report_lines(args.workload, body, wl)
    lines.append(f"ops = {ops.attempted}, ops_failed = {ops.failed}")
    lines += [f"  failed: {r.strip().splitlines()[-1]}" for r in ops.reasons[:5]]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": ops.failed == 0 and ops.attempted > 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
