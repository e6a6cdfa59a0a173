"""LAPACK's banded and triangular solvers, from scipy's compiled wrapper.

``flapack`` is the extension module ``scipy.linalg._flapack``, loaded from
its file without importing a scipy package: it holds ``dpbtrf``, ``dpbtrs``,
``dgbsv`` and ``dtrtrs``, the four routines AMEn's local solves call. It is
registered under its real name, so a later ``import scipy.linalg`` reuses it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_NAME = "scipy.linalg._flapack"


def _load():
    # importing scipy.linalg for these four routines took 0.23-0.32 s and
    # raised a fresh process's RSS from 26.9 to 55.3 MB (numpy loaded, 2-core
    # machine, scipy 1.17); the extension module alone loads in ~10 ms and
    # adds 2.7 MB
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    if spec is None:
        raise ImportError("scipy is not installed")
    folder = Path(spec.submodule_search_locations[0]) / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_NAME, str(path))
            spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_NAME] = module
            loader.exec_module(module)
            return module
    raise ImportError(f"no _flapack extension module in {folder}")


flapack = _load()
