"""Run one workload in a fresh process and print one JSON line.

Usage: ``python3 perfbench/child.py '<job as JSON>'``, started by ``run.py``
with the BLAS thread pin and ``PYTHONPATH`` already in its environment.

Modes:

* ``setup``: import, load the inputs, do the first operation; report the
  CPU time this process has used so far.
* ``run``: one untimed warm-up unit, then the workload's unit of work
  repeated for ``seconds``, with ``SETUP_PROBES`` set-up probes (fresh
  ``setup`` processes) spread evenly through that time, so that the set-up
  time is sampled under the same machine conditions as the work; then,
  untimed, the correctness gates and the canary.
* ``trace``: the warm-up and a fixed plan of untraced and traced units, for
  the per-layer metrics and the tracing overhead; then, untraced, the gates
  and the canary.

Times are process CPU time (``time.process_time``).  The closed loop is one
thread with one BLAS thread, so its CPU time is its wall time less the time
the host ran something else on that CPU (steal, 10-20% between runs on the
shared machine the benchmark was sized on).  A change that makes the library
use more than one thread must revisit this.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Units of a trace job after the warm-up.  Untraced units on both sides of
# the traced ones, so that a drift in machine speed cancels in the overhead.
TRACE_PLAN = ("timed", "traced", "traced", "timed")
# Set-up probes of a run job: one before the first timed unit, one after the
# last, the rest at even points of the measuring time in between.
SETUP_PROBES = 11
# A probe that has not ended after this many seconds counts as failed.
PROBE_LIMIT_S = 60.0


def main() -> int:
    job = json.loads(sys.argv[1])
    import workloads  # numpy and the library load here, inside the set-up time

    wl = workloads.WORKLOADS[job["workload"]]
    params = workloads.PARAMS[job["size"]][job["workload"]]
    inputs = Path(job["inputs"])

    if job["mode"] == "setup":
        wl.first_op(wl.load(params, job["seed"], inputs))
        # CPU time since the process started: interpreter start, imports,
        # reading the inputs and the first operation.
        print(json.dumps({"setup_s": time.process_time()}))
        return 0

    tracer = None
    if job["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        ctx = wl.load(params, job["seed"], inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()

    units, probes, failed = run_units(wl, ctx, job, tracer)
    report = {}
    if tracer is None:
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["setup_s"] = [p for p in probes if p is not None]
    else:
        report["metrics"] = layer_metrics(tracer, units)
        tracer.write(job["spans_out"])

    checks = run_checks(workloads, wl, job, ctx, [u["output"] for u in units])
    for check, ok, detail in checks:
        if not ok:
            print(f"check failed: {job['workload']} {check}: {detail}", file=sys.stderr)
    report.update(
        units=[[u["cpu_s"], u["rows"]] for u in units if u["kind"] == "timed"],
        steps=[u["steps"] for u in units if u["kind"] == "timed"],
        attempted=len(units) + failed + len(probes) + len(checks),
        failed=failed + probes.count(None) + sum(not ok for _, ok, _ in checks),
    )
    print(json.dumps(report))
    return 0


def run_units(wl, ctx, job, tracer) -> tuple[list[dict], list, int]:
    """One untimed warm-up unit, then the timed units: for ``seconds`` in a
    run job, with the set-up probes between them; ``TRACE_PLAN`` in a trace
    job.

    The warm-up lets the allocator and the caches settle; the cold start is
    what the probes measure.  The measuring time counts the units only, not
    the probes.  A unit that raises is a failed operation and ends the loop.
    Returns the units, the probes' set-up times (None for a failed probe)
    and the number of failed units.
    """
    plan = ("warm-up",) + (TRACE_PLAN if tracer is not None else ())
    units: list[dict] = []
    probes: list = []
    measured = 0.0

    def probe_due() -> None:
        # Probe k of SETUP_PROBES is due once k / (SETUP_PROBES - 1) of the
        # measuring time has passed.
        while len(probes) < SETUP_PROBES and len(probes) * job["seconds"] <= measured * (SETUP_PROBES - 1):
            probes.append(setup_probe(job))

    while True:
        kind = plan[len(units)] if len(units) < len(plan) else "timed"
        if kind == "traced":
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rows, steps, output = wl.unit(ctx)
        except Exception:
            traceback.print_exc()
            return units, probes, 1
        finally:
            if kind == "traced":
                tracer.uninstall()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        # A unit with no inner steps (one evaluation) is itself one step.
        units.append({"kind": kind, "cpu_s": cpu, "rows": rows, "steps": steps or [cpu], "output": output})
        if tracer is not None:
            if len(units) == len(plan):
                return units, probes, 0
            continue
        if kind == "timed":
            measured += wall
            # Stop before a unit that would overrun the measuring time.
            if measured + wall > job["seconds"]:
                measured = job["seconds"]
                probe_due()
                return units, probes, 0
        probe_due()


def setup_probe(job: dict) -> float | None:
    """Set-up time of a fresh ``setup`` process, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, __file__, json.dumps(dict(job, mode="setup"))],
            capture_output=True, text=True, timeout=PROBE_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{job['workload']} setup probe overran {PROBE_LIMIT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{job['workload']} setup probe exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])["setup_s"]


def layer_metrics(tracer, units: list[dict]) -> dict:
    out = {name: list(value) for name, value in tracer.metrics().items()}

    def rate(kind: str) -> float:
        chosen = [u for u in units if u["kind"] == kind]
        return sum(u["rows"] for u in chosen) / sum(u["cpu_s"] for u in chosen) if chosen else 0.0

    plain, traced = rate("timed"), rate("traced")
    out["trace.overhead_pct"] = [(plain / traced - 1.0) * 100.0 if traced else 0.0, "%"]
    return out


def run_checks(workloads, wl, job, ctx, outputs: list) -> list[tuple[str, bool, str]]:
    """The workload's gates on this run's outputs, then the canary: the same
    unit at the tiny size and seed 0 against its recorded reference."""
    checks = []
    if outputs:
        try:
            checks += wl.gates(ctx, outputs)
        except Exception:
            traceback.print_exc()
            checks.append(("gates", False, "raised"))
    try:
        reference = json.loads(Path(job["reference"]).read_text())[job["workload"]]
        canary_ctx = wl.load(workloads.PARAMS["tiny"][job["workload"]], 0, Path(job["canary"]))
        got = wl.outputs(wl.unit(canary_ctx)[2])
        ok = set(got) == set(reference) and all(
            workloads.rel_err(got[k], reference[k]) <= workloads.CANARY_RTOL for k in reference
        )
        checks.append(("canary_matches_reference", ok, f"got {got}, reference {reference}"))
    except Exception:
        traceback.print_exc()
        checks.append(("canary_matches_reference", False, "raised"))
    return checks


if __name__ == "__main__":
    sys.exit(main())
