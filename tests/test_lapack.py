"""``streamgp._lapack`` against SciPy's public wrappers.

The library's BLAS and LAPACK routines are ctypes bindings to the OpenBLAS
that numpy links.  Each call the library makes, on the Fortran-ordered
operands it passes, must give bit for bit what the same call through
``scipy.linalg`` gives; any other operand is refused.  The binding must
come from numpy's library, fall back to SciPy's f2py wrappers, or fail at
import, and it binds only routines that the library calls.
"""

import _ctypes
import ast
import ctypes
import sys
import threading
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath
import pytest
import scipy
from scipy.linalg import blas, lapack

from streamgp import _lapack


def lower_factor(m: int, seed: int = 0) -> np.ndarray:
    """A C-ordered lower Cholesky factor, as ``np.linalg.cholesky`` gives."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m + 3))
    return np.linalg.cholesky(a @ a.T)


def fortran_normal(rng, shape) -> np.ndarray:
    return np.asfortranarray(rng.standard_normal(shape))


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_each_routine_resolves_in_numpys_library():
    numpy_lib = ctypes.CDLL(_multiarray_umath.__file__)
    bound = _lapack.ROUTINES
    routines = (bound._gemm, bound._trmm, bound._trtri)
    for name, fn in zip(_lapack.NAMES, routines):
        assert address(fn) == address(getattr(numpy_lib, f"scipy_{name}_64_")), name
    assert _lapack._shared_object(numpy_lib.scipy_dgemm_64_) == bound.library
    assert "openblas" in bound.library and bound.num_threads() >= 1


# A library that defines none of the routines.
NO_ROUTINES = _ctypes.__file__


def test_scipy_wrappers_bind_when_numpys_names_are_hidden():
    """SciPy's wrappers, with the flags numpy's binding fixes: each of the
    library's calls gives the same bits through either binding."""
    routines = _lapack.bind(NO_ROUTINES)
    assert isinstance(routines, _lapack.SciPyRoutines)
    assert routines.dgemm is blas.dgemm and routines.dtrmm.func is blas.dtrmm
    assert routines.dtrtri.func is lapack.dtrtri
    assert {name: getattr(routines, name).keywords for name in ("dtrmm", "dtrtri")} == {
        "dtrmm": {"lower": 1}, "dtrtri": {"lower": 1}
    }
    assert not hasattr(routines, "dtrtrs") and not hasattr(_lapack, "dtrtrs")
    L = lower_factor(6)
    L_f, b = np.asfortranarray(L), np.random.default_rng(5).standard_normal((6, 3))
    assert_bitwise(_lapack.dtrmm(1.0, L_f, b, trans_a=1), routines.dtrmm(1.0, L_f, b, trans_a=1))
    assert_bitwise(_lapack.dtrtri(L)[0], routines.dtrtri(L)[0])
    assert routines.library.startswith(str(Path(scipy.__file__).parent))
    assert routines.num_threads() is None


def test_no_library_and_no_scipy_raises_import_error(monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "scipy.linalg._fblas", None)
    with pytest.raises(ImportError, match="dtrtri; searched"):
        _lapack.bind(NO_ROUTINES)
    nowhere = str(tmp_path / "no-such-library.so")
    with pytest.raises(ImportError, match="no-such-library.*scipy.linalg._fblas"):
        _lapack.bind(nowhere)


@pytest.mark.parametrize("trans_a", [0, 1])
def test_dgemm_in_place_accumulation_matches_scipy(trans_a):
    rng = np.random.default_rng(1)
    a = fortran_normal(rng, (7, 5) if trans_a else (5, 7))
    b = fortran_normal(rng, (7, 9))
    c0 = fortran_normal(rng, (5, 9))
    ours, theirs = c0.copy(order="F"), c0.copy(order="F")
    out = _lapack.dgemm(0.5, a, b, beta=1.0, c=ours, trans_a=trans_a, overwrite_c=1)
    ref = blas.dgemm(0.5, a, b, beta=1.0, c=theirs, trans_a=trans_a, overwrite_c=1)
    assert out is ours and ref is theirs  # written in place, as the library relies on
    assert_bitwise(ours, theirs)


@pytest.mark.parametrize("flags", [{}, {"trans_a": 1, "overwrite_b": 1}])
def test_dtrmm_matches_scipy(flags):
    L = np.asfortranarray(lower_factor(6))
    b = np.random.default_rng(2).standard_normal((6, 4))
    ours, theirs = np.asfortranarray(b), np.asfortranarray(b)
    assert_bitwise(_lapack.dtrmm(1.0, L, ours, **flags), blas.dtrmm(1.0, L, theirs, lower=1, **flags))


@pytest.mark.parametrize("name", ["dtrtri"])
def test_factor_inverses_match_scipy(name):
    L = lower_factor(8)
    ours, info = getattr(_lapack, name)(L)
    theirs, ref_info = getattr(lapack, name)(L, lower=1)
    assert info == ref_info == 0
    assert_bitwise(ours, theirs)


@pytest.mark.parametrize("trans", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_dgemm_of_any_layout_matches_matmul(trans):
    """``a`` stored as itself or as its transpose, chosen by ``trans_a``
    (``trans[0]``); both operands given as Fortran-ordered arrays, or as the
    transposed views of C-ordered arrays that the library passes
    (``trans[1]``).  ``c`` is written in place and the inputs are left as
    they were."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 6))
    b = rng.standard_normal((6, 5))
    a_stored = a.T if trans[0] else a
    if trans[1]:
        a_arg, b_arg = np.ascontiguousarray(a_stored.T).T, np.ascontiguousarray(b.T).T
    else:
        a_arg, b_arg = np.asfortranarray(a_stored), np.asfortranarray(b)
    c = np.ones((8, 5), order="F")
    before = [x.copy() for x in (a_arg, b_arg)]
    out = _lapack.dgemm(2.0, a_arg, b_arg, beta=-1.0, c=c, trans_a=trans[0], overwrite_c=1)
    assert out is c
    np.testing.assert_allclose(c, 2.0 * a @ b - 1.0, rtol=1e-13, atol=1e-13)
    for x, x0 in zip((a_arg, b_arg), before):
        assert_bitwise(x, x0)


def test_dgemm_writes_only_in_place():
    """numpy's binding has no ``c=None`` product, no copy of ``c`` without
    ``overwrite_c`` and no ``trans_b``: such calls raise and write
    nothing."""
    dgemm = _lapack.ROUTINES.dgemm
    rng = np.random.default_rng(10)
    a, b = fortran_normal(rng, (4, 3)), fortran_normal(rng, (3, 5))
    c = np.ones((4, 5), order="F")
    with pytest.raises(ValueError, match="dgemm: writes only in place"):
        dgemm(1.0, a, b)
    with pytest.raises(ValueError, match="dgemm: writes only in place"):
        dgemm(1.0, a, b, beta=1.0, c=c)
    with pytest.raises(TypeError, match="trans_b"):
        dgemm(1.0, a, b.T, c=c, trans_b=1, overwrite_c=1)
    assert_bitwise(c, np.ones((4, 5), order="F"))


@pytest.mark.parametrize("order", ["C", "F"])
def test_triangular_operand_of_either_order(order):
    """``dtrmm`` takes the lower factor L as a Fortran-ordered array only,
    as ``dtrtri`` returns L^-1: a C-ordered L, and the C-ordered transpose
    of a Fortran-ordered one, are refused."""
    L = np.asarray(lower_factor(7), order=order)
    b = np.random.default_rng(7).standard_normal((7, 3))
    with pytest.raises(ValueError, match="Fortran-contiguous"):
        _lapack.dtrmm(1.0, L if order == "C" else L.T, b)
    L_f = np.asfortranarray(L)
    np.testing.assert_allclose(_lapack.dtrmm(1.0, L_f, b), L @ b, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(_lapack.dtrmm(1.0, L_f, b, trans_a=1), L.T @ b, rtol=1e-13, atol=1e-13)


def _refused_calls():
    """Calls off the operand contract, and the arrays they pass: C-ordered,
    strided, float32 and 1-D inputs, and in-place outputs that are
    C-ordered, strided, float32 or read-only."""
    rng = np.random.default_rng(9)
    x = {
        "a": fortran_normal(rng, (4, 3)),
        "b": fortran_normal(rng, (3, 5)),
        "b_C": rng.standard_normal((3, 5)),
        "b_strided": fortran_normal(rng, (3, 10))[:, ::2],
        "b32": fortran_normal(rng, (3, 5)).astype(np.float32, order="F"),
        "L": np.asfortranarray(lower_factor(4)),
        "c_C": np.ones((4, 5)),
        "c_strided": np.ones((8, 5), order="F")[::2],
        "c32": np.ones((4, 5), np.float32, order="F"),
        "c_read_only": np.ones((4, 5), order="F"),
    }
    x["c_read_only"].flags.writeable = False
    dgemm, dtrmm = _lapack.ROUTINES.dgemm, _lapack.ROUTINES.dtrmm
    a, b = x["a"], x["b"]
    calls = {
        "C-ordered input": lambda: dgemm(1.0, a, x["b_C"]),
        "strided input": lambda: dgemm(1.0, a, x["b_strided"]),
        "float32 input": lambda: dgemm(1.0, a, x["b32"]),
        "1-D input": lambda: dgemm(1.0, a, b[:, 0]),
        "C-ordered c in place": lambda: dgemm(1.0, a, b, beta=1.0, c=x["c_C"], overwrite_c=1),
        "strided c in place": lambda: dgemm(1.0, a, b, c=x["c_strided"], overwrite_c=1),
        "float32 c in place": lambda: dgemm(1.0, a, b, c=x["c32"], overwrite_c=1),
        "read-only c in place": lambda: dgemm(1.0, a, b, c=x["c_read_only"], overwrite_c=1),
        "C-ordered b in place": lambda: dtrmm(1.0, x["L"], x["c_C"], overwrite_b=1),
    }
    return calls, x


@pytest.mark.parametrize("case", list(_refused_calls()[0]))
def test_operands_off_the_contract_are_refused(case):
    """The ctypes binding takes 2-D Fortran-contiguous float64 operands only,
    and writes in place only into writeable ones: anything else raises
    before any array is written."""
    calls, arrays = _refused_calls()
    before = {name: x.copy() for name, x in arrays.items()}
    with pytest.raises(ValueError, match="Fortran-contiguous float64"):
        calls[case]()
    for name, x in arrays.items():
        assert_bitwise(x, before[name])


def test_mismatched_shapes_are_refused():
    a = np.ones((3, 4), order="F")
    with pytest.raises(ValueError, match="inner dimensions"):
        _lapack.dgemm(1.0, a, a)
    with pytest.raises(ValueError, match="dtrmm"):
        _lapack.dtrmm(1.0, np.ones((3, 3), order="F"), np.ones((4, 2)))
    with pytest.raises(ValueError, match="square"):
        _lapack.dtrtri(a)


def test_dgemm_from_several_threads_at_once():
    """Each thread's products, with their own shapes and scalars, equal the
    ones computed serially: no call sees another's arguments.  More threads
    than cores, switching as often as the interpreter allows."""
    rng = np.random.default_rng(8)
    jobs = []
    for m, k, n, alpha in ((20, 30, 40, 0.5), (33, 7, 25, -1.5), (5, 50, 9, 2.0), (41, 3, 17, -0.25)):
        a, b = fortran_normal(rng, (m, k)), fortran_normal(rng, (k, n))
        c = fortran_normal(rng, (m, n))
        with_c, without_c = c.copy(order="F"), np.zeros((m, n), order="F")
        _lapack.dgemm(alpha, a, b, beta=1.0, c=with_c, overwrite_c=1)
        _lapack.dgemm(alpha, a, b, c=without_c, overwrite_c=1)
        jobs.append((alpha, a, b, c, with_c, without_c))
    mismatches = []
    start = threading.Barrier(len(jobs))

    def work(alpha, a, b, c, with_c, without_c):
        out = np.empty_like(c, order="F")  # this thread's own target
        start.wait()
        for _ in range(300):
            out[...] = c
            if _lapack.dgemm(alpha, a, b, beta=1.0, c=out, overwrite_c=1).tobytes() != with_c.tobytes():
                mismatches.append("with c")
            if _lapack.dgemm(alpha, a, b, c=out, overwrite_c=1).tobytes() != without_c.tobytes():
                mismatches.append("beta 0")

    threads = [threading.Thread(target=work, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not mismatches


def _calls_by_module(package: Path) -> dict[str, set[str]]:
    """For each function or method name, the modules of ``package`` that
    call it, read from their syntax trees."""
    callers: dict[str, set[str]] = {}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                callers.setdefault(name, set()).add(path.stem)
    return callers


def test_every_bound_routine_has_a_library_caller():
    """A routine that no module but ``_lapack`` calls is dead binding code,
    and is unbound rather than carried."""
    callers = _calls_by_module(Path(_lapack.__file__).parent)
    unused = [name for name in _lapack.NAMES if not callers.get(name, set()) - {"_lapack"}]
    assert not unused, f"bound but called from no library module: {unused}"
