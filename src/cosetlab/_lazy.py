"""Deferred imports: a run loads only the modules it uses, and a subcommand
that builds no arrays never runs numpy."""

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


def lazy_attributes(namespace: dict, exports: dict):
    """A module `__getattr__` (PEP 562) for the module whose globals are
    `namespace`.  `exports` maps submodules of its package to the names,
    space-separated, taken from each: a submodule's own name gives the
    submodule, and any other name is imported from its submodule on first
    access and bound in `namespace`, where later lookups find it."""
    home = {name: module for module, names in exports.items() for name in names.split()}
    package = namespace["__package__"]

    def submodule(name: str):
        # __import__, unlike importlib.import_module, is timed by -X importtime
        __import__(f"{package}.{name}")
        return sys.modules[f"{package}.{name}"]

    def __getattr__(name: str):
        if name in exports:
            return submodule(name)
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(submodule(home[name]), name)
        return value

    return __getattr__
