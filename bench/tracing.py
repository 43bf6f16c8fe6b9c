"""Per-layer counters and timers for a traced benchmark run.

The tracer replaces public functions of kkweyl by wrappers at every name where
a kkweyl module binds them (a module attribute, a class attribute, or a name
imported with `from ... import`), so calls between modules are seen too.  A
wrapper counts calls and, for timed functions, adds the inclusive time of the
outermost call.  `remove()` puts every original back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from kkweyl import analysis, cli, nilhecke, polyring, rootsys, verify, weyl

# (metric prefix, owner, attribute, kind): kind "count" counts calls only,
# "time" counts calls and inclusive seconds, "gen" times a generator's
# iteration, "property" counts reads of a property.
TARGETS = [
    ("rootsys.build_e_system", rootsys, "build_e_system", "time"),
    ("rootsys.inner", rootsys.RootSystem, "inner", "count"),
    ("weyl.reflection", weyl, "reflection", "time"),
    ("weyl.support", weyl, "support", "time"),
    ("weyl.enumerate_involutions", weyl, "enumerate_involutions", "gen"),
    ("weyl.bruhat_leq", weyl.BruhatOrder, "leq", "time"),
    ("weyl.multiply", weyl, "multiply", "count"),
    ("weyl.reduced_word", weyl, "reduced_word", "time"),
    ("weyl.length", weyl.WeylElt, "length", "property"),
    ("polyring.ratfn_add", polyring, "ratfn_add", "time"),
    ("polyring.ratfn_mul_root_inverse", polyring, "ratfn_mul_root_inverse", "time"),
    ("polyring.root_linear_form", polyring, "root_linear_form", "count"),
    ("polyring.ratfn_normalize", polyring, "ratfn_normalize", "time"),
    ("polyring.divide_by_linear", polyring, "divide_by_linear", "time"),
    ("polyring.mpoly_mul", polyring.MPoly, "__mul__", "time"),
    ("polyring.weyl_act_ratfn", polyring, "weyl_act_ratfn", "time"),
    ("nilhecke.x_w", nilhecke.NilHeckeEngine, "x_w", "time"),
    ("nilhecke.kk_poly", nilhecke.NilHeckeEngine, "kk_poly", "time"),
    ("nilhecke.expand", nilhecke.FactoredPoly, "expand", "time"),
    ("nilhecke.nh_mul", nilhecke.NilHeckeEngine, "nh_mul", "time"),
    ("nilhecke.bruteforce_expansion", nilhecke.NilHeckeEngine, "bruteforce_expansion", "time"),
    ("nilhecke.dyer_check", nilhecke.NilHeckeEngine, "dyer_check", "time"),
    ("analysis.is_good_pair", analysis, "is_good_pair", "time"),
    ("analysis.certify_distinct", analysis, "certify_distinct", "time"),
    ("verify.check_product_law", verify, "check_product_law", "time"),
    ("verify.check_recursions", verify, "check_recursions", "time"),
    ("verify.check_support_law", verify, "check_support_law", "time"),
    ("verify.check_oracle_equivalence", verify, "check_oracle_equivalence", "time"),
    ("verify.check_dyer_shape", verify, "check_dyer_shape", "time"),
    ("verify.check_supp_bruhat", verify, "check_supp_bruhat", "time"),
    ("verify.check_product_formula", verify, "check_product_formula", "time"),
    ("cli.cert_to_json", cli, "cert_to_json", "time"),
]

# The metrics a traced run reports, with their units; `trace.overhead_s` is
# added by the runner.
PER_LAYER = {
    "rootsys.build_e_system.s": "s",
    "rootsys.inner.calls": "count",
    "weyl.reflection.calls": "count",
    "weyl.reflection.s": "s",
    "weyl.support.calls": "count",
    "weyl.support.s": "s",
    "weyl.enumerate_involutions.s": "s",
    "weyl.bruhat_leq.calls": "count",
    "weyl.bruhat_leq.s": "s",
    "weyl.multiply.calls": "count",
    "weyl.reduced_word.calls": "count",
    "weyl.reduced_word.s": "s",
    "weyl.length.calls": "count",
    "polyring.ratfn_add.calls": "count",
    "polyring.ratfn_add.s": "s",
    "polyring.ratfn_mul_root_inverse.calls": "count",
    "polyring.ratfn_mul_root_inverse.s": "s",
    "polyring.root_linear_form.calls": "count",
    "polyring.ratfn_normalize.calls": "count",
    "polyring.ratfn_normalize.s": "s",
    "polyring.divide_by_linear.calls": "count",
    "polyring.divide_by_linear.exact": "count",
    "polyring.divide_by_linear.s": "s",
    "polyring.mpoly_mul.calls": "count",
    "polyring.mpoly_mul.s": "s",
    "polyring.mpoly_mul.terms_out": "count",
    "polyring.weyl_act_ratfn.calls": "count",
    "polyring.weyl_act_ratfn.s": "s",
    "nilhecke.x_w.s": "s",
    "nilhecke.fold.step_s.max": "s",
    "nilhecke.fold.terms": "count",
    "nilhecke.fold.support": "count",
    "nilhecke.kk_poly.calls": "count",
    "nilhecke.kk_poly.s": "s",
    "nilhecke.expand.s": "s",
    "nilhecke.expand.terms": "count",
    "nilhecke.nh_mul.calls": "count",
    "nilhecke.nh_mul.s": "s",
    "nilhecke.bruteforce_expansion.s": "s",
    "nilhecke.dyer_check.calls": "count",
    "nilhecke.dyer_check.s": "s",
    "analysis.is_good_pair.calls": "count",
    "analysis.is_good_pair.accepted": "count",
    "analysis.is_good_pair.s": "s",
    "analysis.certify_distinct.calls": "count",
    "analysis.certify_distinct.s": "s",
    "verify.check_product_law.s": "s",
    "verify.check_recursions.s": "s",
    "verify.check_support_law.s": "s",
    "verify.check_oracle_equivalence.s": "s",
    "verify.check_dyer_shape.s": "s",
    "verify.check_supp_bruhat.s": "s",
    "verify.check_product_formula.s": "s",
    "cli.cert_to_json.s": "s",
}


def _after_divide(vals, out, dt):
    if out[1].is_zero():
        vals["polyring.divide_by_linear.exact"] += 1


def _after_mpoly_mul(vals, out, dt):
    vals["polyring.mpoly_mul.terms_out"] += len(out.terms)


def _after_expand(vals, out, dt):
    vals["nilhecke.expand.terms"] += len(out.terms)


def _after_good_pair(vals, out, dt):
    vals["analysis.is_good_pair.accepted"] += 1


def _after_x_w(vals, out, dt):
    # In fold-e6 every x_w call adds exactly one fold step to the memo.
    vals["nilhecke.fold.step_s.max"] = max(vals["nilhecke.fold.step_s.max"], dt)
    vals["nilhecke.fold.terms"] = max(vals["nilhecke.fold.terms"], out.term_count())
    vals["nilhecke.fold.support"] = max(vals["nilhecke.fold.support"], len(out.coeffs))


AFTER = {
    "polyring.divide_by_linear": _after_divide,
    "polyring.mpoly_mul": _after_mpoly_mul,
    "nilhecke.expand": _after_expand,
    "analysis.is_good_pair": _after_good_pair,
    "nilhecke.x_w": _after_x_w,
}


class Tracer:
    def __init__(self):
        self.values = defaultdict(int)
        self._undo = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "kkweyl" or name.startswith("kkweyl."))]
        for name, owner, attr, kind in TARGETS:
            original = owner.__dict__[attr]
            if kind == "property":
                self._set(owner, attr, self._property(name, original))
                continue
            wrapper = self._wrap(name, original, kind, AFTER.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        return {name: self.values.get(name, 0) for name in PER_LAYER}

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _property(self, name, prop):
        vals, key, fget = self.values, name + ".calls", prop.fget

        def counted(obj):
            vals[key] += 1
            return fget(obj)
        return property(counted)

    def _wrap(self, name, fn, kind, after):
        vals = self.values
        calls, secs = name + ".calls", name + ".s"
        if kind == "count":
            def counted(*args, **kwargs):
                vals[calls] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "gen":
            def timed_gen(*args, **kwargs):
                vals[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        vals[secs] += perf_counter() - t0
                        return
                    vals[secs] += perf_counter() - t0
                    yield item
            return timed_gen
        depth = [0]

        def timed(*args, **kwargs):
            vals[calls] += 1
            depth[0] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[0] -= 1
                if not depth[0]:
                    vals[secs] += dt
            if after is not None:
                after(vals, out, dt)
            return out
        return timed
