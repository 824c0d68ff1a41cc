"""Exact and randomized analysis of linear extensions of grid posets.

A grid poset is a product of chains [a_1] x ... x [a_k] under the
componentwise order.  This package counts and enumerates its linear
extensions, samples them uniformly (exactly or by a lazy swap walk),
analyzes jumps and pits, builds the adjacent-swap graph, and evaluates
the closed-form bounds that govern these quantities, with vacuity made
explicit at desk scales.

Each module's __all__ is its public API; this package re-exports them all.
They load on first access (PEP 562): `import gridext` binds __version__
alone, a submodule's name imports that module alone, and the first other
name read, __all__ and `from gridext import *` included, imports the eight
modules and binds their exports.  So a command loads only what it runs.
"""

from ._version import __version__

# The modules in the order of __all__, which follows __version__.
_MODULES = ("errors", "grid", "counting", "jumps", "transposition", "sampling", "bounds", "verify")


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES or name == "cli":
        return import_module(f"{__name__}.{name}")
    names = globals()
    if "__all__" not in names:  # once bound, every other name is, so a miss is an AttributeError
        modules = {module: import_module(f"{__name__}.{module}") for module in sorted(_MODULES)}  # alphabetical
        for module in modules.values():
            names.update((key, getattr(module, key)) for key in module.__all__)
        names["__all__"] = ["__version__", *(key for module in _MODULES for key in modules[module].__all__)]
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]
