"""Wall-clock measurements for the complexity tests, taken in a child process.

A timing taken inside the test process shares the BLAS thread pool with
everything else running on the machine; with two or more BLAS threads on a
small machine the fitted scaling exponents came out anywhere.  ``pinned``
runs one named measurement below in a fresh interpreter whose OpenBLAS,
OpenMP and MKL pools are set to one thread before numpy loads.  The calls
of one measurement are warmed up, then timed in turn, round after round,
so that a change in machine speed during the measurement reaches every
size alike; each is reported as its minimum over the rounds, the run least
disturbed by other work.

Run directly to see the numbers:  ``python tests/timing.py criterion_09``
(with ``src`` and ``tests`` on ``PYTHONPATH``) prints one JSON object.

``python tests/timing.py default_threads`` runs ``streamgp train`` at the
train-cstr shape in children with and without ``OPENBLAS_NUM_THREADS=1``,
interleaved, and prints the wall and CPU seconds of each run.

``python tests/timing.py exponents [--runs N] [--against OTHER/src]``
runs criterion 09's pinned ``propagate_parameter_count`` child N times
(default 20), alternating with as many children of the other tree when one
is given, and prints each child's parameter exponent, fitted as the test
fits it, with the counts below 0.70 (the test's floor) and 0.75.

``python tests/timing.py faults [--runs N] [--against OTHER/src]`` runs
:func:`fit_layers` in N pinned children (default 10), alternating with
children of the other tree, and prints the CPU milliseconds and minor page
faults per step of each training layer and per ``predict`` call.

``python tests/timing.py --against OTHER/src`` compares this tree with
another checkout of the package: both are imported side by side in one
pinned child and timed round by round, in wall-clock minima and in medians
of process CPU time (see :func:`against`).  One process
per tree cannot resolve a layer change of 15-20% on a busy machine, because
the speed of a process drifts by more than that from one run to the next.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WARMUP = 2
CRITERION_09_REPS = 15  # rounds of propagate_parameter_count


def pinned(name: str, *args: str, src: Path = ROOT / "src") -> dict:
    """Run measurement ``name`` in a one-BLAS-thread child, with ``args``
    after it on the child's command line and the package under ``src``
    first on its path; its JSON result."""
    path = [str(src), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, __file__, name, *args], env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timing child {name!r} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def min_times(fns: list, reps: int) -> list[float]:
    """Minimum wall time of each ``fn()`` over ``reps`` interleaved rounds,
    after a warm-up."""
    for fn in fns:
        for _ in range(WARMUP):
            fn()
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def criterion_09() -> dict:
    """One full step (update, adjoints, propagate) at B = 100 / 400 / 1600
    with M = 50, and ``propagate`` at P = 84 / 166 / 330 (B = 400, M = 40)."""
    import numpy as np

    import streamgp as sg
    from streamgp import Hyperparameters, MiniBatch, ModelSpec
    from streamgp.gradients import init_gradient_state
    from streamgp.optimizer import step

    rng = np.random.default_rng(0)
    spec = ModelSpec("pep", alpha=0.5)

    def step_at(B: int):
        X = rng.uniform(0.0, 1.0, (B, 1))
        y = rng.standard_normal(B)
        h = Hyperparameters(0.0, np.log([0.3]), np.log(0.1), sg.init_inducing_subset(X, 50, rng))
        batch = MiniBatch(X, y)
        st, g = sg.init_state(h, spec), init_gradient_state(h, spec)
        return lambda: step(st, g, batch, h, spec)

    sizes_b = [100, 400, 1600]
    times_b = min_times([step_at(B) for B in sizes_b], reps=9)
    return {"sizes_b": sizes_b, "times_b": times_b, **propagate_parameter_count()}


def _propagate_by_parameter_count(sg) -> tuple[list[int], list]:
    """``propagate`` of the package ``sg`` at D = 2 / 4 / 8 input dimensions,
    so P = D + 2 + M D = 84 / 166 / 330 parameters, at B = 400, M = 40
    (PEP): the parameter counts, and one call for each."""
    from conftest import make_instance

    gr = sg.gradients
    spec = sg.ModelSpec("pep", alpha=0.5)

    def propagate_at(D: int):
        X, y, h0 = make_instance(19, n=400, m=40, d=D, lengthscale=0.3)
        h = sg.Hyperparameters(h0.log_sigma0, h0.log_lengthscales, h0.log_sigma_n, h0.inducing_inputs)
        batch = sg.MiniBatch(X, y)
        st = sg.init_state(h, spec)
        st2, km = sg.update(st, batch, h, spec)
        adj = gr.compute_adjoints(st, st2, km, h, spec)
        g = gr.init_gradient_state(h, spec)  # advanced in place by every timed call
        return h.n_params, lambda: gr.propagate(g, adj, km.geometry, h, spec, batch)

    sizes_p, fns = zip(*(propagate_at(D) for D in (2, 4, 8)))
    return list(sizes_p), list(fns)


def propagate_parameter_count() -> dict:
    """``propagate`` at criterion 09's parameter counts (see
    :func:`_propagate_by_parameter_count`), minimum of 15 rounds."""
    import streamgp

    sizes_p, fns = _propagate_by_parameter_count(streamgp)
    return {"sizes_p": sizes_p, "times_p": min_times(fns, reps=CRITERION_09_REPS)}


def exponents(runs: int = 20, src: str | None = None) -> dict:
    """Criterion 09's parameter exponent from ``runs`` pinned children of
    :func:`propagate_parameter_count`, each fitted as the test fits it.
    With ``src``, as many children import the package under ``src``; the
    two trees alternate, each going first in every other pair.  Reports
    every exponent of each tree, its median, and how many fall below 0.70,
    the test's floor, and below 0.75.

    Not used by any test; run by hand.
    """
    import statistics

    trees = {"this": ROOT / "src"}
    if src is not None:
        trees["other"] = Path(src).resolve()
    found = {label: [] for label in trees}
    for r in range(runs):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            t = pinned("propagate_parameter_count", src=trees[label])
            found[label].append(_exponent(t["sizes_p"], t["times_p"]))
    result = {"runs": runs}
    for label, values in found.items():
        result[label] = {
            "src": str(trees[label]),
            "exponents": [round(e, 3) for e in values],
            "median": round(statistics.median(values), 3),
            "below_0.70": sum(e < 0.70 for e in values),
            "below_0.75": sum(e < 0.75 for e in values),
        }
    return result


# The serve-eval shape: held-out rows scored against a D = 5, M = 50 model.
PREDICT_ROWS = 3999


def _predict_call(sg, X, y, h0):
    """``predict`` with noise, by the package ``sg``, of ``PREDICT_ROWS``
    rows laid out as ``load_dataset`` gives them, from a PEP (alpha 0.5)
    posterior that has absorbed ``X``, ``y`` at the parameters of ``h0``,
    as two calls: one that reuses the posterior, as a server does, and a
    first call, on fresh ``dataclasses.replace`` copies of the posterior and
    the parameter object each time, as a freshly loaded checkpoint runs, so
    that it builds what each of them keeps for prediction."""
    from dataclasses import replace

    import numpy as np

    spec = sg.ModelSpec("pep", alpha=0.5)
    h = sg.Hyperparameters(h0.log_sigma0, h0.log_lengthscales, h0.log_sigma_n, h0.inducing_inputs)
    state, _ = sg.update(sg.init_state(h, spec), sg.MiniBatch(X, y), h, spec)
    # The feature columns of a table whose last column is the target,
    # selected as load_dataset selects them: Fortran-ordered, as served.
    table = np.random.default_rng(1).uniform(0.0, 1.0, (PREDICT_ROWS, X.shape[1] + 1))
    X_star = table[:, np.arange(table.shape[1]) != X.shape[1]]
    return (
        lambda: sg.predict(state, X_star, h, spec, with_noise=True),
        lambda: sg.predict(replace(state), X_star, replace(h), spec, with_noise=True),
    )


# The layers of a training step and epoch, as ``srgp_fit`` calls them
# through the names of the ``optimizer`` module.
FIT_LAYERS = ("init_gradient_state", "update", "compute_adjoints", "propagate", "adam_step", "fixed_theta_pass")


def fit_layers(fits: int = 3, calls: int = 50) -> dict:
    """Process CPU time and minor page faults of each layer of a train-cstr
    ``srgp_fit`` (a 2,000 s CSTR rollout read back from its file, N = 9,999,
    D = 5; PEP 0.5, M = 50, B = 256, 3 epochs), per step over ``fits`` fits
    after a warm one, and of ``predict`` at the serve-eval shape (see
    :func:`_predict_call`), per call over ``calls`` calls after a warm-up.

    A layer's numbers are its self cost: ``fixed_theta_pass``'s exclude the
    ``update`` calls it makes, and ``srgp_fit``'s are what the fit spends
    outside the layers (``init_state`` and the loop itself).  Both come from
    ``resource.getrusage`` of this process around each call.  Faults show
    which layer maps new memory at every call instead of reusing it.
    """
    import resource
    import statistics
    import tempfile

    from conftest import make_instance

    import numpy as np

    import streamgp
    from streamgp import optimizer

    def usage() -> tuple[float, int]:
        r = resource.getrusage(resource.RUSAGE_SELF)
        return r.ru_utime + r.ru_stime, r.ru_minflt

    totals = {name: [0.0, 0] for name in ("srgp_fit", *FIT_LAYERS)}
    frames = []  # per open call: [name, CPU s, faults] spent in the layers it calls

    def layer(name, fn):
        def call(*args, **kwargs):
            frames.append([name, 0.0, 0])
            cpu0, faults0 = usage()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu, faults = usage()
                _, inner_cpu, inner_faults = frames.pop()
                totals[name][0] += cpu - cpu0 - inner_cpu
                totals[name][1] += faults - faults0 - inner_faults
                if frames:
                    frames[-1][1] += cpu - cpu0
                    frames[-1][2] += faults - faults0

        return call

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "train.csv")
        streamgp.save_dataset(streamgp.simulate_cstr(0, 2000, lag=2), path)
        ds = streamgp.load_dataset(path)
    rng = np.random.default_rng(0)
    h0 = streamgp.Hyperparameters(0.0, np.zeros(5), 0.0, optimizer.init_inducing_subset(ds.X, 50, rng))
    spec = streamgp.ModelSpec("pep", alpha=0.5)
    cfg = streamgp.TrainConfig(epochs=3, batch_size=256, learning_rate=1e-3)
    fit = layer("srgp_fit", optimizer.srgp_fit)
    originals = {name: getattr(optimizer, name) for name in FIT_LAYERS}
    try:
        for name, fn in originals.items():
            setattr(optimizer, name, layer(name, fn))
        fit(ds.X, ds.y, h0, spec, cfg)
        for entry in totals.values():
            entry[:] = [0.0, 0]
        steps = sum(len(fit(ds.X, ds.y, h0, spec, cfg).trace) for _ in range(fits))
    finally:
        for name, fn in originals.items():
            setattr(optimizer, name, fn)
    result = {
        "steps": steps,
        **{
            name: {"cpu_ms": round(cpu * 1e3 / steps, 3), "faults": round(faults / steps, 1)}
            for name, (cpu, faults) in totals.items()
        },
    }

    X, y, h = make_instance(23, n=256, m=50, d=5, lengthscale=0.5)
    fn, _ = _predict_call(streamgp, X, y, h)
    for _ in range(WARMUP):
        fn()
    cpu, faults0 = [], usage()[1]
    for _ in range(calls):
        c0, _ = usage()
        fn()
        cpu.append(usage()[0] - c0)
    result["predict"] = {
        "cpu_ms": round(statistics.median(cpu) * 1e3, 3),
        "faults": round((usage()[1] - faults0) / calls, 1),
    }
    return result


def faults(runs: int = 10, src: str | None = None) -> dict:
    """:func:`fit_layers` in ``runs`` pinned children, alternating with as
    many children of the package under ``src`` when one is given, each tree
    going first in every other pair.  Reports, for each tree and layer, the
    median and the range over its children of CPU ms and minor faults per
    training step (per call for ``predict``).

    Not used by any test; run by hand:
    ``python tests/timing.py faults [--runs N] [--against OTHER/src]``.
    """
    import statistics

    trees = {"this": ROOT / "src"}
    if src is not None:
        trees["other"] = Path(src).resolve()
    found = {label: [] for label in trees}
    for r in range(runs):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            found[label].append(pinned("fit_layers", src=trees[label]))
    result = {"runs": runs}
    for label, children in found.items():
        layers = {}
        for name in ("srgp_fit", *FIT_LAYERS, "predict"):
            layers[name] = {
                key: [round(f(c[name][key] for c in children), 3) for f in (statistics.median, min, max)]
                for key in ("cpu_ms", "faults")
            }
        result[label] = {"src": str(trees[label]), "median_min_max": layers}
    return result


CLI = ["-c", "import sys; from streamgp.cli import main; sys.exit(main())"]


def run_child(args: list[str], env: dict) -> tuple[float, float, float]:
    """Wall seconds, CPU seconds and peak resident MB of ``python *args`` run
    to completion in a child with environment ``env``, read through
    ``os.wait4``."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"{args} exited with {child.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def default_threads(reps: int = 5) -> dict:
    """``streamgp train`` at the train-cstr shape (a 2,000 s CSTR rollout,
    N = 9,999, D = 5; PEP 0.5, M = 50, B = 256, 3 epochs), ``reps`` times
    with no thread variable set, so OpenBLAS sizes its pool to the machine,
    and ``reps`` times with ``OPENBLAS_NUM_THREADS=1``, interleaved.  Reports
    the wall and child CPU seconds of each run and the median wall time of
    each setting.

    Two BLAS pools in one process that fight over the cores show up as an
    unpinned wall time well above the pinned one.  Not used by any test;
    run by hand.  The package is the one ``PYTHONPATH`` finds.
    """
    import statistics
    import tempfile

    unpinned = {k: v for k, v in os.environ.items() if k not in (*PINNED_ENV, "GOTO_NUM_THREADS")}
    envs = {"unpinned": unpinned, "pinned": {**unpinned, **PINNED_ENV}}
    runs = {name: [] for name in envs}
    with tempfile.TemporaryDirectory() as tmp:
        data, model = str(Path(tmp) / "train.csv"), str(Path(tmp) / "model.npz")
        simulate = [*CLI, "simulate", "cstr", "--duration", "2000", "--seed", "0", "--out", data]
        run_child(simulate, envs["pinned"])
        train = [
            *CLI, "train", "--data", data, "--model", "pep", "--alpha", "0.5", "--num-inducing", "50",
            "--batch-size", "256", "--epochs", "3", "--checkpoint-out", model,
        ]
        for _ in range(reps):
            for name, env in envs.items():
                wall, cpu, _ = run_child(train, env)
                runs[name].append({"wall_s": round(wall, 3), "cpu_s": round(cpu, 3)})
    result = {"cpus": os.cpu_count(), "reps": reps}
    for name, samples in runs.items():
        result[name] = {
            "median_wall_s": round(statistics.median(r["wall_s"] for r in samples), 3),
            "runs": samples,
        }
    result["unpinned_over_pinned"] = round(
        result["unpinned"]["median_wall_s"] / result["pinned"]["median_wall_s"], 3
    )
    return result


def load_tree(src: str, name: str = "streamgp_against"):
    """The ``streamgp`` package under the directory ``src``, imported as
    ``name`` beside the one on the path; its modules import each other
    relatively, so they load as ``name.<module>``."""
    package = Path(src).resolve() / "streamgp"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _train_step_calls(sg, X, y, h0) -> tuple:
    """``propagate`` and one training step of the package ``sg`` at the
    parameters of ``h0``, as two calls.  The step is the body of the
    training loop: update, adjoints and propagate at a new parameter value
    (so the prior is built anew), then the ADAM step."""
    gr = sg.gradients
    spec = sg.ModelSpec("pep", alpha=0.5)
    h = sg.Hyperparameters(h0.log_sigma0, h0.log_lengthscales, h0.log_sigma_n, h0.inducing_inputs)
    theta, batch = h.to_vector(), sg.MiniBatch(X, y)
    st = sg.init_state(h, spec)
    st2, km = sg.update(st, batch, h, spec)
    adj = gr.compute_adjoints(st, st2, km, h, spec)
    g = gr.init_gradient_state(h, spec)  # advanced in place by every timed call
    adam = sg.AdamState.fresh(h.n_params, 1e-3)

    def step():
        hk = h.with_vector(theta)
        st2, km = sg.update(st, batch, hk, spec)
        g2 = gr.propagate(g, gr.compute_adjoints(st, st2, km, hk, spec), km.geometry, hk, spec, batch)
        sg.adam_step(theta, g2.d_psi - g.d_psi, adam)

    return lambda: gr.propagate(g, adj, km.geometry, h, spec, batch), step


def _exponent(sizes, times) -> float:
    """Slope of log time against log size, as criterion 09 fits it."""
    import numpy as np

    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def against(src: str, reps: int = 100) -> dict:
    """``propagate`` and one training step at the train-cstr shape (PEP,
    D = 5, M = 50, B = 256), ``predict`` at the serve-eval shape, reusing
    its posterior and as a first call (see :func:`_predict_call`), and
    ``propagate`` at criterion 09's parameter counts (see
    :func:`_propagate_by_parameter_count`), of this tree and of the package
    under ``src``.

    Both trees are loaded in this process.  Each of ``reps`` rounds times
    every call of both once, the two trees in alternating order, so that a
    change of machine speed reaches both alike; every other pair of rounds
    times a tree's calls in reverse order, so that no call always follows
    the same one and inherits the cache state it leaves.  Reports each
    tree's minimum wall time in milliseconds, the ratio this / other of the
    minima, and the quartiles of the per-round ratios, which show the
    spread.  Beside them go each tree's median process CPU time per call
    and the ratio of those medians, as ``perfbench`` reads its end-to-end
    metrics off ``time.process_time``, as medians and percentiles.  For
    each tree it also fits criterion 09's parameter exponent, from the minima
    over all rounds and from those of each run of 15 rounds, the count the
    test takes its minima over, so a change's effect on that test's floor
    reads beside the other tree's.

    Not used by any test; run by hand.
    """
    from conftest import make_instance

    import numpy as np

    import streamgp

    X, y, h0 = make_instance(23, n=256, m=50, d=5, lengthscale=0.5)
    names = ["propagate", "step", "predict", "predict first call"]
    calls = []
    for sg in (streamgp, load_tree(src)):
        sizes_p, p_calls = _propagate_by_parameter_count(sg)
        calls.append((*_train_step_calls(sg, X, y, h0), *_predict_call(sg, X, y, h0), *p_calls))
    names += [f"propagate P={p}" for p in sizes_p]
    times = {name: ([], []) for name in names}
    cpu = {name: ([], []) for name in names}
    for r in range(WARMUP + reps):
        for tree in (0, 1) if r % 2 == 0 else (1, 0):
            for name, fn in list(zip(names, calls[tree]))[:: 1 if r // 2 % 2 == 0 else -1]:
                c0, t0 = time.process_time(), time.perf_counter()
                fn()
                if r >= WARMUP:
                    times[name][tree].append(time.perf_counter() - t0)
                    cpu[name][tree].append(time.process_time() - c0)
    result = {"against": str(Path(src).resolve()), "rounds": reps}
    for name, (this, other) in times.items():
        per_round = np.asarray(this) / np.asarray(other)
        this_cpu, other_cpu = (float(np.median(c)) for c in cpu[name])
        result[name] = {
            "this_ms": round(min(this) * 1e3, 3),
            "other_ms": round(min(other) * 1e3, 3),
            "ratio_of_minima": round(min(this) / min(other), 4),
            "round_ratio_quartiles": [round(q, 4) for q in np.quantile(per_round, [0.25, 0.5, 0.75])],
            "this_cpu_ms_median": round(this_cpu * 1e3, 3),
            "other_cpu_ms_median": round(other_cpu * 1e3, 3),
            "ratio_of_cpu_medians": round(this_cpu / other_cpu, 4),
        }
    exponents = {"sizes_p": sizes_p}
    for tree, label in enumerate(("this", "other")):
        runs = np.array([times[f"propagate P={p}"][tree] for p in sizes_p])  # (sizes, rounds)
        groups = range(0, reps - CRITERION_09_REPS + 1, CRITERION_09_REPS)
        per_group = [_exponent(sizes_p, runs[:, lo : lo + CRITERION_09_REPS].min(axis=1)) for lo in groups]
        exponents[label] = {
            "of_minima": round(_exponent(sizes_p, runs.min(axis=1)), 3),
            f"per_{CRITERION_09_REPS}_rounds": [round(e, 3) for e in per_group],
        }
    result["propagate_parameter_exponent"] = exponents
    return result


MEASUREMENTS = {
    "criterion_09": criterion_09,
    "propagate_parameter_count": propagate_parameter_count,
    "fit_layers": fit_layers,
    "default_threads": default_threads,
}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print one timing measurement as JSON.")
    parser.add_argument("measurement", nargs="?", choices=[*MEASUREMENTS, "against", "exponents", "faults"])
    parser.add_argument(
        "--against",
        metavar="SRC",
        dest="src",
        help="time this tree against the streamgp package under SRC (a src directory), "
        "both in one pinned child; with exponents, alternate its children with this tree's",
    )
    parser.add_argument("--runs", type=int, default=None, help="children per tree for exponents (20) or faults (10)")
    args = parser.parse_args()
    if args.measurement == "exponents":
        print(json.dumps(exponents(args.runs or 20, args.src)))
    elif args.measurement == "faults":
        print(json.dumps(faults(args.runs or 10, args.src)))
    elif args.measurement == "against":
        print(json.dumps(against(args.src)))
    elif args.src is not None:
        print(json.dumps(pinned("against", "--against", str(Path(args.src).resolve()))))
    elif args.measurement is not None:
        print(json.dumps(MEASUREMENTS[args.measurement]()))
    else:
        parser.error("name a measurement or give --against SRC")
