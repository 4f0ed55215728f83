"""The three BLAS and LAPACK routines the library calls, bound with ctypes
to numpy's own OpenBLAS.

``dgemm`` and ``dtrmm`` (BLAS) and ``dtrtri`` (LAPACK) take the arguments
and keywords of SciPy's f2py wrappers in ``scipy.linalg.blas``/``lapack``
that the library passes, and return what those return.  They make the
library's one triangular path: ``dtrtri`` forms a factor's one inverse
factor L^-1 and ``dtrmm`` applies it, for every product with the factored
matrix's inverse and for its dense inverse
(:class:`streamgp.linalg.CholFactor` says why).  The flags that every
library call passes with one value are fixed: ``dgemm``'s ``b`` is not
transposed, and ``dtrmm`` and ``dtrtri`` take a lower triangle
(``lower=1``).  Their one operand contract is Fortran order:

* an input operand (``a`` and ``b`` of ``dgemm``, ``a`` of ``dtrmm``) must
  be a 2-D Fortran-contiguous float64 array, or the call raises
  ``ValueError``.  A caller holding a C-ordered ``a`` of ``dgemm`` passes
  its transpose with ``trans_a`` flipped;
* ``dgemm`` writes only in place: ``c`` must be given, with
  ``overwrite_c=1``, as a writeable Fortran-contiguous float64 array, or
  the call raises ``ValueError``.  ``dtrmm`` writes ``b`` in place under
  ``overwrite_b`` on the same condition; without the flag it copies ``b``
  to a new Fortran-ordered float64 array, which is written and returned,
  as is the ``c`` of ``dtrtri``.

SciPy's wrappers, the fallback below, take these calls and more.

numpy >= 2 wheels link OpenBLAS with 64-bit integers and export its
routines as ``scipy_<name>_64_``, found through numpy's core extension
file.  Binding those, ``@``, ``np.linalg.cholesky`` and these routines
share one library and one thread pool, sized by ``OPENBLAS_NUM_THREADS``.
A numpy that exports none of them (on Windows, a macOS build against
Accelerate, a conda or distribution build against a system BLAS) gets
SciPy's own f2py wrappers from ``scipy.linalg._fblas``/``_flapack``
instead, which link SciPy's BLAS; the package requires SciPy off Linux for
this.  With neither, the import raises ``ImportError``.

The routines may be called from several threads at once: a call shares
only read-only argument objects with other calls, and ctypes releases the
GIL while it runs.
"""

from __future__ import annotations

import ctypes
import importlib
import sys
from functools import partial
from pathlib import Path

import numpy as np

NAMES = ("dgemm", "dtrmm", "dtrtri")
SYMBOL = "scipy_{}_64_"  # with 64-bit integers
NUM_THREADS = "scipy_openblas_get_num_threads64_"

_OP = (b"N", b"T", b"T")  # trans = 0, 1, 2 ('C' is 'T' for real data)
# Fortran's hidden string lengths, passed after the other arguments; a C
# implementation of the routine ignores them.
_LEN = ctypes.c_size_t(1)
_byref = ctypes.byref
_CONSTANTS = 256  # scalar argument objects kept per type
_FLOAT64 = np.dtype(np.float64)

# numpy's array object holds its data pointer right after the object header
# (``PyArrayObject_fields`` in numpy/ndarraytypes.h).  Reading it there costs
# a tenth of ``a.ctypes.data``, which is paid on every operand of every call;
# it is checked once here, and the slow path kept for any build that differs.
# Only CPython's ``id`` is an address, so no other interpreter reads there.
_DATA_OFFSET = object.__basicsize__
_void_p_at = ctypes.c_void_p.from_address


def _fast_pointer(a: np.ndarray):
    return _void_p_at(id(a) + _DATA_OFFSET)


def _slow_pointer(a: np.ndarray):
    return ctypes.c_void_p(a.__array_interface__["data"][0])


_probe = np.empty((3, 2))[1:]
_pointer = (
    _fast_pointer
    if sys.implementation.name == "cpython"
    and _fast_pointer(_probe).value == _probe.__array_interface__["data"][0]
    else _slow_pointer
)
del _probe


def _operand(a, routine: str, in_place: bool = False) -> np.ndarray:
    """``a`` itself, which must be a 2-D Fortran-contiguous float64 array,
    and writeable if the routine writes into it in place."""
    if (
        type(a) is np.ndarray and a.dtype == _FLOAT64 and a.ndim == 2 and a.flags.f_contiguous
        and (not in_place or a.flags.writeable)
    ):
        return a
    a = np.asarray(a)
    raise ValueError(
        f"{routine}: operands must be 2-D Fortran-contiguous float64 arrays, writeable if written "
        f"in place; got {a.dtype} {a.shape}, strides {a.strides}, writeable {a.flags.writeable}"
    )


class _Constants(dict):
    """By-reference scalar arguments of one C type, one object per value,
    made on first use.  The routines read their integer and scalar inputs
    and never write them, so one object serves every call in every thread;
    building them anew took most of the cost of a call.  Two threads that
    meet a new value at once may each store one; either object is valid,
    and a call holds its own reference to the one it passes."""

    def __init__(self, ctype):
        super().__init__()
        self.ctype = ctype

    def __missing__(self, value):
        ref = _byref(self.ctype(value))
        if value and len(self) < _CONSTANTS:  # zero is left out: -0.0 == 0.0
            self[value] = ref
        return ref


class Routines:
    """The three routines bound from ``source``, with the signatures of
    SciPy's f2py wrappers; ``library`` is the file that defines them."""

    def __init__(self, source: str):
        lib = ctypes.CDLL(source)

        def bind(name: str):
            # No argtypes: every argument goes in as an object of its exact C
            # type (bytes for a char*, a by-reference int64 or double, a
            # void* for an array), so ctypes converts nothing; declaring them
            # cost about 2 us more per call, half of the binding's overhead.
            fn = getattr(lib, SYMBOL.format(name))
            fn.restype = None
            return fn

        self._gemm, self._trmm, self._trtri = map(bind, NAMES)
        self._get_num_threads = getattr(lib, NUM_THREADS)
        self._get_num_threads.restype = ctypes.c_int
        self._int = _Constants(ctypes.c_int64)
        self._double = _Constants(ctypes.c_double)
        self.library = _shared_object(self._gemm) or source

    def num_threads(self) -> int:
        """The library's current thread count."""
        return int(self._get_num_threads())

    def dgemm(self, alpha, a, b, beta=0.0, c=None, trans_a=0, overwrite_c=0):
        """c = alpha op(a) b + beta c, in place: ``c`` is required, with
        ``overwrite_c`` set."""
        a, b = _operand(a, "dgemm"), _operand(b, "dgemm")
        m, k = a.shape[::-1] if trans_a else a.shape
        if k != b.shape[0]:
            raise ValueError(f"dgemm: inner dimensions {k} and {b.shape[0]} differ")
        if c is None or not overwrite_c:
            raise ValueError("dgemm: writes only in place, into a c passed with overwrite_c=1")
        c = _operand(c, "dgemm", True)
        n = b.shape[1]
        if c.shape != (m, n):
            raise ValueError(f"dgemm: c has shape {c.shape}, expected {(m, n)}")
        i, d = self._int, self._double
        self._gemm(
            _OP[trans_a], b"N", i[m], i[n], i[k], d[alpha], _pointer(a), i[a.shape[0] or 1],
            _pointer(b), i[k or 1], d[beta], _pointer(c), i[m or 1], _LEN, _LEN,
        )
        return c

    def dtrmm(self, alpha, a, b, overwrite_b=0, trans_a=0):
        """b = alpha op(a) b for lower-triangular ``a``."""
        a = _operand(a, "dtrmm")
        b = _operand(b, "dtrmm", True) if overwrite_b else np.array(b, np.float64, order="F")
        m, n = b.shape if b.ndim == 2 else (-1, -1)
        if m < 0 or a.shape != (m, m):
            raise ValueError(f"dtrmm: shapes {a.shape} and {b.shape} do not match")
        i = self._int
        self._trmm(
            b"L", b"L", _OP[trans_a], b"N", i[m], i[n], self._double[alpha],
            _pointer(a), i[m or 1], _pointer(b), i[m or 1], _LEN, _LEN, _LEN, _LEN,
        )
        return b

    def dtrtri(self, c):
        """(inverse of lower-triangular ``c``, in the lower triangle of a
        Fortran-ordered float64 copy; info)."""
        c = np.array(c, np.float64, order="F")
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"dtrtri: c has shape {c.shape}, expected a square matrix")
        n, info = c.shape[0], ctypes.c_int64(0)
        self._trtri(b"L", b"N", self._int[n], _pointer(c), self._int[n or 1], _byref(info), _LEN, _LEN)
        return c, info.value


class _DlInfo(ctypes.Structure):
    _fields_ = [
        ("dli_fname", ctypes.c_char_p),
        ("dli_fbase", ctypes.c_void_p),
        ("dli_sname", ctypes.c_char_p),
        ("dli_saddr", ctypes.c_void_p),
    ]


def _shared_object(fn) -> str | None:
    """The file of the shared object that defines ``fn``, where ``dladdr``
    can tell."""
    try:
        dladdr = ctypes.CDLL(None).dladdr
    except (AttributeError, OSError, TypeError):
        return None
    info = _DlInfo()
    if not dladdr(ctypes.cast(fn, ctypes.c_void_p), ctypes.byref(info)) or not info.dli_fname:
        return None
    return str(Path(info.dli_fname.decode()).resolve())


class SciPyRoutines:
    """SciPy's f2py wrappers of the three routines, with the flags that
    :class:`Routines` fixes, for a numpy that exports none of them;
    ``library`` is SciPy's ``_fblas`` extension file, which links SciPy's
    BLAS.  The ordinary import runs ``scipy/__init__``, which on Windows
    makes SciPy's bundled DLLs findable."""

    def __init__(self):
        fblas = importlib.import_module("scipy.linalg._fblas")
        flapack = importlib.import_module("scipy.linalg._flapack")
        self.dgemm, self.dtrmm = fblas.dgemm, partial(fblas.dtrmm, lower=1)
        self.dtrtri = partial(flapack.dtrtri, lower=1)
        self.library = str(Path(fblas.__file__).resolve())

    def num_threads(self) -> None:
        """None: SciPy's wrappers do not report their library's threads."""
        return None


def bind(source: str | None = None) -> Routines | SciPyRoutines:
    """The routines from ``source``, by default numpy's core extension file,
    which links numpy's OpenBLAS; else SciPy's f2py wrappers."""
    if source is None:
        from numpy._core import _multiarray_umath

        source = _multiarray_umath.__file__
    try:
        return Routines(source)
    except (OSError, AttributeError) as exc:
        searched = f"{SYMBOL.format('<name>')} in {source} ({exc})"
    try:
        return SciPyRoutines()
    except ImportError as exc:
        raise ImportError(
            f"no library defines BLAS/LAPACK {', '.join(NAMES)}; searched: {searched}; "
            f"scipy.linalg._fblas/_flapack ({exc}). Install SciPy to use the BLAS it bundles."
        ) from None


ROUTINES = bind()
dgemm, dtrmm, dtrtri = ROUTINES.dgemm, ROUTINES.dtrmm, ROUTINES.dtrtri
