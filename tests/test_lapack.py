"""``streamgp._lapack`` and ``tri_solve`` against SciPy's public wrappers.

The library's BLAS and LAPACK routines are SciPy's own f2py wrappers,
loaded from their extension files; every call the library makes must give
bit for bit what the same call through ``scipy.linalg`` gives.
"""

import importlib.util
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg._fblas
import scipy.linalg._flapack
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


def test_routines_come_from_scipy_extension_files():
    assert _lapack._fblas.__file__ == scipy.linalg._fblas.__file__
    assert _lapack._flapack.__file__ == scipy.linalg._flapack.__file__


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


def test_loader_falls_back_to_scipy_linalg_without_the_files(monkeypatch, tmp_path):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert _lapack._load("_fblas") is scipy.linalg._fblas
    assert _lapack._load("_flapack") is scipy.linalg._flapack
    empty = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
    assert _lapack._load("_fblas") is scipy.linalg._fblas
