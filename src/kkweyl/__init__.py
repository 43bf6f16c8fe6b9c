"""Exact Kostant-Kumar polynomial engine for Weyl groups of type E."""

from .rootsys import (
    Rat, Root, RootSystem, SimpleOrder, build_e_system, build_from_cartan,
    direct_sum, lex_compare, first_column, reflect, named_order,
)
from .weyl import (
    WeylElt, Word, identity, simple_reflection, multiply, inverse, act_on_root,
    reduced_word, reflection, parabolic_factorize, support,
    enumerate_involutions, BruhatOrder,
)
from .polyring import MPoly, RatFn, root_linear_form, divide_by_linear
from .nilhecke import NHElt, NilHeckeEngine, KKResult, product_formula_check

__all__ = [
    "Rat", "Root", "RootSystem", "SimpleOrder", "build_e_system",
    "build_from_cartan", "direct_sum", "lex_compare", "first_column", "reflect",
    "named_order", "WeylElt", "Word", "identity", "simple_reflection",
    "multiply", "inverse", "act_on_root", "reduced_word",
    "reflection", "parabolic_factorize", "support", "enumerate_involutions",
    "BruhatOrder", "MPoly", "RatFn", "root_linear_form", "divide_by_linear",
    "NHElt", "NilHeckeEngine", "KKResult", "product_formula_check",
]
