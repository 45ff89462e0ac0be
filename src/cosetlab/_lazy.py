"""Deferred imports: a subcommand that builds no arrays never runs numpy."""

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name` (the loaded one, if any), executed on its first
    attribute access; from then on it is a plain module."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
