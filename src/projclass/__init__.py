"""Exact deciders for diagonal families of finite index sets.

A family assigns each position j a finite set I_j of natural numbers.  The
questions answered here are combinatorial throughout: how many pairwise
orthogonal trivial summands fit under n copies of the family, whether that
count stays bounded as n grows, and whether a distinct-representative
assignment survives composition with the shift-style endomorphism.  Every
decision returns a finite certificate that can be replayed independently.

Importing the package loads none of its modules: each exported name is
resolved from the module that defines it on first access, so a process pays
only for the code it uses.
"""

import sys

__version__ = "0.1.0"

_SOURCES = {
    "classify": "classify compute_N",
    "dynamics": "simulate",
    "errors": "ProjclassError",
    "euler": "euler_class sdr_count",
    "family": "Constant DisjointBlocks FiniteFamily ProjectionFamily parse_family",
    "hall": "INFINITE decide_trivial_minorization",
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = sorted(_SOURCE_OF)


def __getattr__(name: str):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE_OF))


class _Package(type(sys)):
    """The package's module type (type(sys) is the module type).

    Importing a submodule binds it as an attribute of the package, and the
    submodule classify shares its name with the exported function classify,
    so that binding is redirected to the function.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if name == "classify" and value is sys.modules.get(f"{__name__}.classify"):
            value = value.classify
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
