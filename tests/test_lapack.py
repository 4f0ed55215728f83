"""``streamgp._lapack`` and ``tri_solve`` against SciPy's public wrappers.

The library's BLAS and LAPACK routines are ctypes bindings to the OpenBLAS
that numpy links.  Each call the library makes must give bit for bit what
the same call through ``scipy.linalg`` gives, and the binding must come
from numpy's library, fall back to SciPy's f2py wrappers, or fail at
import.
"""

import ctypes
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

from streamgp import _lapack
from streamgp.linalg import tri_solve


def lower_factor(m: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m + 3))
    return np.linalg.cholesky(a @ a.T)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_each_routine_resolves_in_numpys_library():
    numpy_lib = ctypes.CDLL(_lapack._numpy_library())
    bound = _lapack.ROUTINES
    routines = (bound._gemm, bound._trmm, bound._trtri, bound._potri, bound._trtrs)
    for name, fn in zip(_lapack.NAMES, routines):
        assert address(fn) == address(getattr(numpy_lib, f"scipy_{name}_64_")), name
    assert _lapack._shared_object(numpy_lib.scipy_dgemm_64_) == bound.library
    assert "openblas" in bound.library and bound.num_threads() >= 1


def test_scipy_wrappers_bind_when_numpys_names_are_hidden():
    (numpy_row,) = _lapack.LIBRARIES
    hidden = (numpy_row[0], "hidden_{}_64_", *numpy_row[2:])
    routines = _lapack.bind((hidden,))
    assert isinstance(routines, _lapack.SciPyRoutines)
    assert routines.dgemm is blas.dgemm and routines.dtrmm is blas.dtrmm
    for name in ("dtrtri", "dpotri", "dtrtrs"):
        assert getattr(routines, name) is getattr(lapack, name), name
    assert routines.library.startswith(str(Path(scipy.__file__).parent))
    assert routines.num_threads() is None


def test_no_library_and_no_scipy_raises_import_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.linalg._fblas", None)
    with pytest.raises(ImportError, match="dgemm, dtrmm, dtrtri, dpotri, dtrtrs"):
        _lapack.bind(())
    nowhere = ((lambda: None, "scipy_{}_64_", ctypes.c_int64, "getter"),)
    with pytest.raises(ImportError, match="no file.*scipy.linalg._fblas"):
        _lapack.bind(nowhere)


@pytest.mark.parametrize("trans_a", [0, 1])
def test_dgemm_in_place_accumulation_matches_scipy(trans_a):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 5) if trans_a else (5, 7))
    b = rng.standard_normal((7, 9))
    c0 = np.asfortranarray(rng.standard_normal((5, 9)))
    ours, theirs = c0.copy(order="F"), c0.copy(order="F")
    out = _lapack.dgemm(0.5, a, b, beta=1.0, c=ours, trans_a=trans_a, overwrite_c=1)
    ref = blas.dgemm(0.5, a, b, beta=1.0, c=theirs, trans_a=trans_a, overwrite_c=1)
    assert out is ours and ref is theirs  # written in place, as the library relies on
    assert_bitwise(ours, theirs)


@pytest.mark.parametrize("flags", [{}, {"trans_a": 1, "overwrite_b": 1}])
def test_dtrmm_matches_scipy(flags):
    L = lower_factor(6)
    b = np.random.default_rng(2).standard_normal((6, 4))
    ours, theirs = np.asfortranarray(b), np.asfortranarray(b)
    assert_bitwise(
        _lapack.dtrmm(1.0, L, ours, lower=1, **flags), blas.dtrmm(1.0, L, theirs, lower=1, **flags)
    )


@pytest.mark.parametrize("name", ["dtrtri", "dpotri"])
def test_factor_inverses_match_scipy(name):
    L = lower_factor(8)
    ours, info = getattr(_lapack, name)(L, lower=1)
    theirs, ref_info = getattr(lapack, name)(L, lower=1)
    assert info == ref_info == 0
    assert_bitwise(ours, theirs)


@pytest.mark.parametrize("trans", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_dgemm_of_any_layout_matches_matmul(trans):
    """C-ordered operands go in as transposes, strided ones as copies; the
    inputs are left as they were and ``c`` is not written without
    ``overwrite_c``."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 12))[:, ::2]  # (8, 6), strided
    b = rng.standard_normal((6, 5))  # C-ordered
    a_arg = np.ascontiguousarray(a.T) if trans[0] else a
    b_arg = np.asfortranarray(b.T) if trans[1] else b
    c = np.ones((8, 5))
    before = [x.copy() for x in (a_arg, b_arg, c)]
    out = _lapack.dgemm(2.0, a_arg, b_arg, beta=-1.0, c=c, trans_a=trans[0], trans_b=trans[1])
    np.testing.assert_allclose(out, 2.0 * a @ b - 1.0, rtol=1e-13, atol=1e-13)
    assert out.flags.f_contiguous and not np.shares_memory(out, c)
    for x, x0 in zip((a_arg, b_arg, c), before):
        assert_bitwise(x, x0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_triangular_operand_of_either_order(order):
    L = np.asarray(lower_factor(7), order=order)
    b = np.random.default_rng(7).standard_normal((7, 3))
    np.testing.assert_allclose(_lapack.dtrmm(1.0, L, b, lower=1), L @ b, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        _lapack.dtrmm(1.0, L, b, lower=1, trans_a=1), L.T @ b, rtol=1e-13, atol=1e-13
    )
    x, info = _lapack.dtrtrs(L, b, lower=1, trans=1)
    assert info == 0
    np.testing.assert_allclose(L.T @ x, b, rtol=1e-12, atol=1e-12)


def test_mismatched_shapes_are_refused():
    with pytest.raises(ValueError, match="inner dimensions"):
        _lapack.dgemm(1.0, np.ones((3, 4)), np.ones((3, 4)))
    with pytest.raises(ValueError, match="dtrmm"):
        _lapack.dtrmm(1.0, np.eye(3), np.ones((4, 2)))
    with pytest.raises(ValueError, match="square"):
        _lapack.dpotri(np.ones((3, 4)))


def test_dgemm_from_several_threads_at_once():
    """Each thread's products, with their own shapes and scalars, equal the
    ones computed serially: no call sees another's arguments.  More threads
    than cores, switching as often as the interpreter allows."""
    rng = np.random.default_rng(8)
    jobs = []
    for m, k, n, alpha in ((20, 30, 40, 0.5), (33, 7, 25, -1.5), (5, 50, 9, 2.0), (41, 3, 17, -0.25)):
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        serial = _lapack.dgemm(alpha, a, b, beta=1.0, c=c), _lapack.dgemm(alpha, a, b)
        jobs.append((alpha, a, b, c, *serial))
    mismatches = []
    start = threading.Barrier(len(jobs))

    def work(alpha, a, b, c, with_c, without_c):
        start.wait()
        for _ in range(300):
            if _lapack.dgemm(alpha, a, b, beta=1.0, c=c).tobytes() != with_c.tobytes():
                mismatches.append("with c")
            if _lapack.dgemm(alpha, a, b).tobytes() != without_c.tobytes():
                mismatches.append("without c")

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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("b_shape", [(6,), (6, 3), (6, 0), (0,)])
def test_tri_solve_matches_solve_triangular(order, b_shape):
    L = np.asarray(lower_factor(6 if b_shape[0] else 0), order=order)
    b = np.random.default_rng(3).standard_normal(b_shape)
    expected = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
    assert_bitwise(tri_solve(L, b), expected)


def test_tri_solve_of_transposed_view_matches_solve_triangular():
    L = lower_factor(5)
    b = np.random.default_rng(4).standard_normal((3, 5)).T  # a view, as K_XR.T is
    assert_bitwise(tri_solve(L, b), scipy.linalg.solve_triangular(L, b, lower=True))


@pytest.mark.parametrize("order", ["C", "F"])
def test_tri_solve_zero_pivot_raises(order):
    L = np.asarray(lower_factor(4), order=order)
    L[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        tri_solve(L, np.ones(4))
