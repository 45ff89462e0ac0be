"""numpy as `np`, run on its first attribute access, so a subcommand that builds
no arrays never runs it.  Here alone cosetlab loads numpy and sets its BLAS
threads (see _OneBlasThread); numpy loaded before cosetlab is used as it is."""

import importlib.util
import os
import sys

# OpenBLAS reads these when numpy first loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _OneBlasThread:
    """A module's own loader, run with OPENBLAS_NUM_THREADS=1 (cosetlab's BLAS
    calls are 3x3) unless one of BLAS_THREAD_VARS is set; os.environ is restored."""

    def __init__(self, loader):
        self.loader, self.create_module = loader, loader.create_module

    def exec_module(self, module):
        unset = os.environ.keys().isdisjoint(BLAS_THREAD_VARS)
        if unset:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            self.loader.exec_module(module)
        finally:  # a plain module with its own loader from here on
            module.__spec__.loader = module.__loader__ = self.loader
            if unset:
                del os.environ["OPENBLAS_NUM_THREADS"]


np = sys.modules.get("numpy")
if np is None:
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(_OneBlasThread(spec.loader))
    np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(np)
