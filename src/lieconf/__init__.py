"""Exact-arithmetic Lie theory: root systems, representations, embedding data,
conformal-level criteria, and q-series identity verification.

Importing the package loads no layer: the CLI parser reads the name tuples
below, and each command imports only the layers it runs.
"""

__all__ = ["AlgebraType", "LieError", "SimpleAlgebra", "build_algebra"]
__version__ = "0.1.0"

# Names the CLI parser offers as choices; embed and qseries validate
# against these same tuples.
DUAL_PAIR_FAMILIES = ("slsl", "spsp", "soso", "spso", "BB", "CC", "OO")
CHARACTER_MODELS = ("sl2_m32", "sl2_m4", "weyl_M3", "delta")
IDENTITY_NAMES = ("delta_eta", "eq92", "kw", "thm92")


def __getattr__(name):
    # PEP 562: the liealg re-exports are looked up when read, so importing
    # the package loads no layer.
    if name in __all__:
        from . import liealg

        return getattr(liealg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
