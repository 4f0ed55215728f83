"""SciPy's BLAS and LAPACK wrappers, loaded without ``import scipy.linalg``.

The library calls five f2py routines: ``dgemm`` and ``dtrmm`` from SciPy's
``_fblas`` extension, ``dtrtri``, ``dpotri`` and ``dtrtrs`` from its
``_flapack``.  ``import scipy.linalg`` would also run ``scipy/__init__``
and ``scipy/linalg/__init__``, which pull in ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``: about 0.25 s of CPU and 24 MB per
process on a 2-CPU x86-64 machine, where the two extension files load in a
few milliseconds.  They are loaded here straight from SciPy's ``linalg``
directory, as ``streamgp._lapack._fblas`` and ``streamgp._lapack._flapack``,
with no SciPy package module imported; only if a file is not there does
this fall back to the ordinary import, whose modules hold the same
routines.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
from pathlib import Path


def _load(name: str):
    """SciPy's extension module ``scipy.linalg.<name>``."""
    spec = importlib.util.find_spec("scipy")
    for location in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(location) / "linalg" / f"{name}{suffix}"
            if path.is_file():
                ext = importlib.util.spec_from_file_location(f"{__name__}.{name}", path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
    return importlib.import_module(f"scipy.linalg.{name}")


_fblas = _load("_fblas")
_flapack = _load("_flapack")
dgemm, dtrmm = _fblas.dgemm, _fblas.dtrmm
dtrtri, dpotri, dtrtrs = _flapack.dtrtri, _flapack.dpotri, _flapack.dtrtrs
