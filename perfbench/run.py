"""Benchmark of the streamgp library: two closed-loop workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train-cstr --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

The inputs of a run are written from ``--seed`` before any timing, under
``.bench_work/``.  Each measurement then runs in a fresh child process
(``child.py``) whose environment pins every BLAS to one thread:

* ``--trace 0``: one process that repeats the unit of work for
  ``--seconds`` and starts the set-up probes between units; prints the
  end-to-end metrics;
* ``--trace 1``: one process that runs a fixed plan of untraced and traced
  units and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (with ``--workload
all``, the sums over the workloads and their metrics as
``<workload>.<metric>``).  A unit that raises, a probe or child that exits
with an error or a correctness check that fails counts as one failed
operation; ``failed / attempted`` is the error rate.  The exit code is 0
whenever that line is printed, failed operations or not, and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNIT_STEPS_FOR_P90 = 100
# Every child process of a run must end within this many seconds of its start.
RUN_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pin": PIN,
    }


def spawn(job: dict, env: dict, deadline: float) -> dict | None:
    """Run one child; its report, or None if it failed or overran.

    The child leads a process group of its own, so that on overrun its
    set-up probes are stopped with it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{job['workload']} {job['mode']}: child overran the time limit", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:  # interrupted: leave nothing running
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{job['workload']} {job['mode']}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(
    root: Path, name: str, seed: int, seconds: float, trace: bool,
    size: str = "full", reference: Path = HERE / "reference.json",
) -> tuple[dict, str]:
    """One benchmark run: the result object and a one-line summary."""
    import numpy as np
    import workloads

    work = root / ".bench_work"
    tmp = work / f"{name}-s{seed}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PIN)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        for sub, params, s in (
            ("inputs", workloads.PARAMS[size][name], seed),
            ("canary", workloads.PARAMS["tiny"][name], 0),
        ):
            (tmp / sub).mkdir(parents=True)
            workloads.WORKLOADS[name].make_inputs(params, s, tmp / sub)
        job = {
            "workload": name, "seed": seed, "size": size, "seconds": seconds,
            "inputs": str(tmp / "inputs"), "canary": str(tmp / "canary"),
            "reference": str(reference), "spans_out": str(work / f"spans-{name}-s{seed}.jsonl"),
        }
        report = spawn(dict(job, mode="trace" if trace else "run"), env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = report["attempted"] if report else 1
    failed = report["failed"] if report else 1
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in (report or {}).get("metrics", {}).items()}
    else:
        values = dict.fromkeys(END_TO_END, 0.0)
        if report and report["setup_s"]:
            values["setup_s"] = float(np.median(report["setup_s"]))
        if report and report["units"]:
            values["rows_per_s"] = float(np.median([rows / cpu_s for cpu_s, rows in report["units"]]))
            values["step_ms_p50"], values["step_ms_p90"] = step_percentiles_ms(report["steps"])
            values["peak_rss_mb"] = report["peak_rss_mb"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summarize(name, seed, trace, result, report)


def step_percentiles_ms(steps: list[list[float]]) -> tuple[float, float]:
    """p50 and p90 of the step times in ms, from one list of steps per unit.

    When every unit has ``UNIT_STEPS_FOR_P90`` steps or more (ten or more
    beyond its p90), the percentiles are taken within each unit and their
    median over the units is reported, so that a burst of interference from
    other tenants of the machine moves one unit's tail rather than the run's.
    Units of a single step (one evaluation) are pooled.
    """
    import numpy as np

    if all(len(s) >= UNIT_STEPS_FOR_P90 for s in steps):
        p50, p90 = np.median([np.percentile(s, [50, 90]) for s in steps], axis=0)
    else:
        p50, p90 = np.percentile([t for s in steps for t in s], [50, 90])
    return float(p50) * 1e3, float(p90) * 1e3


def summarize(name: str, seed: int, trace: bool, result: dict, report: dict | None) -> str:
    m = result["metrics"]
    rate = f"error_rate {result['failed'] / result['attempted']:.3g} ratio ({result['failed']}/{result['attempted']})"
    if not trace:
        shown = " | ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items())
        n_units = len(report["units"]) if report else 0
        n_steps = sum(map(len, report["steps"])) if report else 0
        return f"{name} seed {seed}: {shown} | {rate} | {n_units} units, {n_steps} steps"
    if not m:
        return f"{name} seed {seed} traced: no metrics | {rate}"
    calls = m["gradients.propagate.calls"]["value"]
    ms = m["gradients.propagate.busy_s"]["value"] / calls * 1e3 if calls else 0.0
    # ROADMAP's baseline measured 54 ms per propagate call at this shape (config B, PEP).
    baseline = " (ROADMAP baseline: 54 ms/call)" if calls else ""
    return (
        f"{name} seed {seed} traced: propagate {calls} calls, {ms:.1f} ms/call{baseline} | "
        f"tracing overhead {m['trace.overhead_pct']['value']:.1f}% | {rate}"
    )


def self_test(root: Path) -> int:
    """Tiny-size runs of every workload, traced and untraced: each prints
    exactly the metrics of BENCHMARK.json with their units and passes its
    checks; fed a wrong reference, each counts a failure and still reports."""
    import workloads

    bench = json.loads((root / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    good = json.loads((HERE / "reference.json").read_text())
    wrong = {w: {k: v * 2.0 + 1.0 for k, v in ref.items()} for w, ref in good.items()}
    wrong_path = root / ".bench_work" / "wrong-reference.json"
    wrong_path.parent.mkdir(parents=True, exist_ok=True)
    wrong_path.write_text(json.dumps(wrong))
    for name in workloads.NAMES:
        for trace in (False, True):
            result, line = run_workload(root, name, 0, 1.0, trace, size="tiny")
            print(line)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want[trace]))} differ")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed")
        result, line = run_workload(root, name, 0, 1.0, False, size="tiny", reference=wrong_path)
        print(line)
        if result["correct"] or result["failed"] != 1 or not result["metrics"]["rows_per_s"]["value"]:
            problems.append(f"{name}: a wrong reference was not counted as exactly one failed check")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "streamgp" / "__init__.py").is_file():
        print(f"{root}: no src/streamgp here; run from the root of the repository", file=sys.stderr)
        return 2
    os.environ.update(PIN)  # before numpy loads in this process too
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.self_test:
        return self_test(root)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    print("env " + json.dumps(environment()))
    results = {}
    for name in names:
        results[name], line = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print(line)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
