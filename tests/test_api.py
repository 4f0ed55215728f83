"""The public surface: exported names and the functions the benchmark wraps,
and a check that every library function reads each of its parameters."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamgp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LIBRARY = Path(streamgp.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert len(streamgp.__all__) == len(set(streamgp.__all__))
    missing = [name for name in streamgp.__all__ if not hasattr(streamgp, name)]
    assert not missing


INTERNALS = {
    "gradients": (
        "AdjointIntermediates", "GradientState", "compute_adjoints", "propagate", "init_gradient_state"
    ),
    "inference": ("KalmanIntermediates",),
    "model": ("BatchGeometry", "regularizer", "batch_geometry"),
    "kernel": ("kernel_matrix",),
    "data": ("integrate_cstr",),
}


def test_recursion_internals_are_not_exported():
    # The recursion's internals stay in their modules, under their names.
    for module_name, names in INTERNALS.items():
        module = importlib.import_module(f"streamgp.{module_name}")
        for name in names:
            assert name not in streamgp.__all__ and not hasattr(streamgp, name), name
            assert hasattr(module, name), f"{module_name}.{name}"
    assert len(streamgp.__all__) == 34


def unread_parameters(source: str) -> list[str]:
    """``name:line parameter`` for every parameter of a function or lambda in
    ``source`` that its body never reads.  A read is a load of the name, or
    an augmented assignment to it (``dst += x`` updates what it names); a
    nested function's read counts for the function that encloses it.  The
    ``self`` or ``cls`` of a method is exempt, as its signature is fixed."""
    tree = ast.parse(source)
    methods = {
        id(fn)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        if id(fn) in methods and params[:1] in (["self"], ["cls"]):
            params = params[1:]
        read = set()
        for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    read.add(node.target.id)
        name = getattr(fn, "name", "<lambda>")
        unread += [f"{name}:{fn.lineno} {p}" for p in params if p not in read]
    return unread


def test_unread_parameters_are_found():
    source = """
def f(a, b, *args, c, **kw):
    return a
class K:
    def m(self, x):
        x += 1
    def n(self):
        return lambda y, z: z
def g(d):
    def inner():
        return d
    return inner
"""
    assert unread_parameters(source) == ["f:2 b", "f:2 c", "f:2 args", "f:2 kw", "<lambda>:8 y"]


def test_every_library_parameter_is_read():
    # A parameter no body reads is API that callers must pass for nothing.
    unread = [
        f"{path.relative_to(LIBRARY)}:{entry}"
        for path in sorted(LIBRARY.rglob("*.py"))
        for entry in unread_parameters(path.read_text())
    ]
    assert not unread, unread


def test_benchmark_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in spans.LAYERS:
        module_name, function_name = layer.split(".")
        module = importlib.import_module(f"streamgp.{module_name}")
        assert callable(getattr(module, function_name, None)), layer


# Run in a fresh interpreter: the training, scoring, bound, generator and CLI
# paths of the library, then a check that none of them imported SciPy's
# packages (their BLAS and LAPACK routines come through ``streamgp._lapack``)
# and, where ``/proc/self/maps`` lists the mapped files, that the process maps
# one OpenBLAS and no SciPy extension file.
NO_SCIPY_SCRIPT = """
import json
import os
import sys
from pathlib import Path

import numpy as np
import streamgp
from streamgp.cli import main

out = Path(sys.argv[1])
ds = streamgp.generate_gp_data(0, 60, 2)
sparse = streamgp.generate_gp_data(0, streamgp.data.DENSE_SAMPLING_GUARD + 1, 2)
h = streamgp.default_hyperparameters(2, inducing_inputs=ds.X[:5])
spec = streamgp.ModelSpec("pep", 0.5)
res = streamgp.srgp_fit(ds.X, ds.y, h, spec, streamgp.TrainConfig(epochs=1, batch_size=20))
dist = streamgp.predict(res.posterior, sparse.X, res.hyper, spec, with_noise=True)
bound = streamgp.batch_bound(ds.X, ds.y, res.hyper, spec)
streamgp.save_dataset(ds, str(out / "data.csv"))
assert main(["train", "--data", str(out / "data.csv"), "--num-inducing", "5", "--epochs", "1",
             "--checkpoint-out", str(out / "model.npz")]) == 0
assert main(["evaluate", "--checkpoint", str(out / "model.npz"), "--data", str(out / "data.csv")]) == 0
assert np.all(np.isfinite(dist.mean)) and np.isfinite(bound.value)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as maps:
        files = {line.split(maxsplit=5)[-1].strip() for line in maps if "/" in line}
    print(json.dumps({
        "openblas": sorted(f for f in files if "openblas" in os.path.basename(f).lower()),
        "scipy_extensions": sorted(f for f in files if f"{os.sep}scipy{os.sep}" in f),
    }))
"""


def test_library_does_not_import_scipy_packages(tmp_path):
    src = str(Path(streamgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    if not sys.platform.startswith("linux"):
        assert lines[-1] == "[]"
        pytest.skip("the mapped-library check reads /proc/self/maps, which only Linux has")
    assert lines[-2] == "[]"
    mapped = json.loads(lines[-1])
    assert len(mapped["openblas"]) == 1, mapped
    assert mapped["scipy_extensions"] == [], mapped
