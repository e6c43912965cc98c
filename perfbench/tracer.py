"""Per-layer counters and timers installed from outside the ``lpgg`` package.

The tracer wraps public functions, methods and operator slots of the
``lpgg`` modules (and ``fractions.Fraction.__new__``) with counting and
timing wrappers.  Nothing under ``src/`` changes: every wrapper is set on
the module, class or dict that holds the original, and every ``lpgg``
module that imported a name by value gets the wrapper too.

Times are inclusive and counted only at the outermost entry into a
metric, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import fractions
import inspect
import sys
import time
from collections import Counter

# share metric -> (numerator counter, base counter)
SHARES = {
    "scalars.mul_rational_share": ("scalars.mul_rational", "scalars.mul_calls"),
    "algebra.pairs_kept_share": ("algebra.kept_pairs", "algebra.filtered_pairs"),
    "algebra.algebra_repeat_share": ("algebra.algebras_repeated", "algebra.algebras_built"),
    "frames.build_repeat_share": ("frames.build_repeats", "frames.build_calls"),
}


class Tracer:
    """Counters plus the patches that feed them; ``install``/``uninstall``."""

    def __init__(self):
        self.raw: Counter = Counter()
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._seen_algebras: set = set()
        self._seen_frames: set = set()

    # -- wrapper factories ------------------------------------------------

    def _timed(self, metric: str, fn, key=None):
        raw, depth = self.raw, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            raw[metric + "_calls"] += 1
            if key is not None:
                key(args, kwargs)
            if depth[metric]:
                return fn(*args, **kwargs)
            depth[metric] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                raw[metric + "_s"] += clock() - start
                depth[metric] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, metric: str, fn):
        raw = self.raw

        def wrapper(*args, **kwargs):
            raw[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, name: str, value):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name], True))
            owner[name] = value
        else:
            self._patches.append((owner, name, owner.__dict__[name], False))
            setattr(owner, name, value)

    def _patch_function(self, module, name: str, wrapper):
        """Replace ``module.name`` and every by-value import of it in lpgg."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lpgg" or mod_name.startswith("lpgg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        from lpgg import (algebra, atlas, calculus, frames, linalg, reporting,
                          scalars, simplex, spectral, star, textform, verify)

        self._install_scalars(scalars)
        self._install_algebra(algebra)

        self._patch_function(linalg, "invert",
                             self._timed("linalg.invert", linalg.invert))
        build_sig = inspect.signature(frames.build_null_frame)

        def frame_key(args, kwargs):
            bound = build_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
            if key in self._seen_frames:
                self.raw["frames.build_repeats"] += 1
            self._seen_frames.add(key)

        self._patch_function(frames, "build_null_frame", self._timed(
            "frames.build", frames.build_null_frame, frame_key))
        self._patch_function(frames, "null_canonical_basis", self._timed(
            "frames.canonical_basis", frames.null_canonical_basis))
        self._patch_function(frames, "express_in_null_basis", self._timed(
            "frames.express", frames.express_in_null_basis))
        self._set(calculus.DiffOperator, "apply", self._timed(
            "calculus.apply", calculus.DiffOperator.apply))
        self._patch_function(textform, "format_multivector", self._timed(
            "textform.format", textform.format_multivector))
        self._patch_function(textform, "parse_multivector", self._timed(
            "textform.parse", textform.parse_multivector))
        for method in ("to_json", "render_text"):
            self._set(reporting.VerificationReport, method, self._timed(
                "reporting.serialize", getattr(reporting.VerificationReport, method)))

        for module in (star, spectral, simplex, atlas):
            metric = module.__name__.rsplit(".", 1)[1] + ".public"
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._patch_function(module, name, self._timed(metric, fn))

        for suite, fn in list(verify.SUITE_FUNCTIONS.items()):
            wrapper = self._timed(f"verify.{suite}", fn)
            self._set(verify.SUITE_FUNCTIONS, suite, wrapper)
            self._patch_function(verify, fn.__name__, wrapper)

    def _install_scalars(self, scalars):
        raw = self.raw
        Radical = scalars.Radical
        rational_types = (int, fractions.Fraction)

        def rational(value):
            if isinstance(value, Radical):
                terms = value._terms
                return not terms or (len(terms) == 1 and 1 in terms)
            return isinstance(value, rational_types)

        def mul_wrapper(fn):
            def wrapper(self, other):
                raw["scalars.mul_calls"] += 1
                if rational(self) and rational(other):
                    raw["scalars.mul_rational"] += 1
                return fn(self, other)
            return wrapper

        mul = Radical.__dict__["__mul__"]
        add = Radical.__dict__["__add__"]
        self._set(Radical, "__mul__", mul_wrapper(mul))
        self._set(Radical, "__rmul__", mul_wrapper(Radical.__dict__["__rmul__"]))
        self._set(Radical, "__add__", self._counted("scalars.add_calls", add))
        self._set(Radical, "__radd__", self._counted(
            "scalars.add_calls", Radical.__dict__["__radd__"]))
        self._set(fractions.Fraction, "__new__", staticmethod(self._counted(
            "scalars.fraction_new_calls", fractions.Fraction.__new__)))

    def _install_algebra(self, algebra):
        raw = self.raw
        Algebra, Multivector = algebra.Algebra, algebra.Multivector
        init = Algebra.__init__

        def init_wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            raw["algebra.algebras_built"] += 1
            if (obj.p, obj.q) in self._seen_algebras:
                raw["algebra.algebras_repeated"] += 1
            self._seen_algebras.add((obj.p, obj.q))

        self._set(Algebra, "__init__", init_wrapper)
        self._set(Algebra, "product_sign", self._timed(
            "algebra.sign", Algebra.product_sign))

        product = Multivector._product

        def product_wrapper(obj, other, keep):
            pairs = len(obj._coeffs) * len(other._coeffs)
            raw["algebra.blade_pairs"] += pairs
            if keep is not None:
                raw["algebra.filtered_pairs"] += pairs
                inner = keep

                def keep(ga, gb, gout):
                    kept = inner(ga, gb, gout)
                    if kept:
                        raw["algebra.kept_pairs"] += 1
                    return kept
            return product(obj, other, keep)

        self._set(Multivector, "_product", self._timed("algebra.product", product_wrapper))

    def uninstall(self):
        for owner, name, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def derive(raw: dict) -> dict:
    """Per-layer metrics from raw counters: the counters plus the shares.

    Children of the cli-commands workload report raw counters, which the
    parent sums before calling this, so each share keeps its base.
    """
    out = dict(raw)
    for name, (part, whole) in SHARES.items():
        out[name] = raw.get(part, 0) / raw[whole] if raw.get(whole) else 0.0
    return out
