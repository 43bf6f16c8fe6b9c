"""Exact Kostant-Kumar polynomial engine for Weyl groups of type E."""

from .rootsys import (
    Root, RootSystem, SimpleOrder, build_e_system, build_from_cartan,
    direct_sum, first_column, named_order,
)
from .weyl import (
    WeylElt, Word, identity, simple_reflection, multiply, inverse,
    reduced_word, reflection, parabolic_factorize, support,
    enumerate_involutions, BruhatOrder,
)
from .polyring import MPoly, RatFn, root_linear_form, divide_by_linear
from .nilhecke import NHElt, NilHeckeEngine, KKResult, product_formula_check

__all__ = [
    "Root", "RootSystem", "SimpleOrder", "build_e_system",
    "build_from_cartan", "direct_sum", "first_column", "named_order",
    "WeylElt", "Word", "identity", "simple_reflection",
    "multiply", "inverse", "reduced_word",
    "reflection", "parabolic_factorize", "support", "enumerate_involutions",
    "BruhatOrder", "MPoly", "RatFn", "root_linear_form", "divide_by_linear",
    "NHElt", "NilHeckeEngine", "KKResult", "product_formula_check",
]
