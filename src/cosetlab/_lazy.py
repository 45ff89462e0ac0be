"""Deferred import of numpy: a subcommand that builds no arrays never runs
it, and numpy loaded here starts one BLAS thread unless a count is chosen."""

import importlib.util
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # as in cli


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


def lazy_import(name: str):
    """The module `name` (the loaded one, if any), executed on its first
    attribute access; from then on it is a plain module."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(_OneBlasThread(spec.loader))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
