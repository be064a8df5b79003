"""Per-layer spans recorded from outside discjet, by wrapping its public callables.

Each layer is one function or method.  A method is patched once on its
class, under every name the class binds it to (``__rmul__ = __mul__``).  A
module function is patched in every loaded discjet module that holds it,
under whatever name that module imported it as (``lie_adjoint`` in
``acceptance``); patching only the defining module would leave calls made
through ``from .series import series_substitute`` unseen.

A span's self time is its duration minus the durations of the spans it
encloses.  Spans are aggregated per layer as they close; no per-call record
is kept, because the innermost layers are called millions of times.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

PACKAGE = "discjet"

#: (layer name, module, attribute, extra counter).  ``series.substitute`` wraps
#: the private ``_substitute_exact`` because every substitution goes through
#: it: ``series_substitute``, ``reverse_composition`` and ``etale`` alike.
LAYERS = [
    ("base_ring.mul", "base_ring", "BaseRingElement.__mul__", "term_pairs"),
    ("base_ring.add", "base_ring", "BaseRingElement.__add__", None),
    ("base_ring.invert", "base_ring", "BaseRingElement.invert", None),
    ("series.mul", "series", "TruncatedSeries.__mul__", "term_pairs"),
    ("series.add", "series", "TruncatedSeries.__add__", None),
    ("series.substitute", "series", "_substitute_exact", None),
    ("series.reverse", "series", "reverse_composition", None),
    ("jet_group.compose", "jet_group", "jet_compose", None),
    ("jet_group.invert", "jet_group", "jet_invert", None),
    ("jet_group.classify", "jet_group", "jet_classify", None),
    ("hopf.poly_mul", "hopf", "Polynomial.__mul__", "term_pairs"),
    ("hopf.coord_add", "hopf", "CoordRingElement.__add__", None),
    ("hopf.coproduct", "hopf", "coproduct", None),
    ("hopf.antipode", "hopf", "antipode", None),
    ("hopf.coproduct_extend", "hopf", "coproduct_extend", None),
    ("rep.standard", "rep", "rep_jet_standard", None),
    ("rep.check", "rep", "rep_check_homomorphism", None),
    ("rep.eval", "rep", "rep_eval", None),
    ("lie.exp", "lie", "exp_derivation", None),
    ("lie.log", "lie", "log_unipotent", None),
    ("lie.bracket", "lie", "derivation_bracket", None),
    ("lie.adjoint", "lie", "adjoint", None),
    ("etale.roof_jet", "etale", "roof_jet", None),
    ("etale.roof_is_strict", "etale", "roof_is_strict", None),
    ("jsonio.read", "jsonio", "read_json", "bytes"),
    ("jsonio.write", "jsonio", "write_json", "bytes"),
    ("cli.main", "cli", "main", "failed"),
]


def metric_names():
    """Every per-layer metric with its unit and direction, in report order."""
    out = []
    for name, _, _, extra in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if extra is not None:
            out.append((f"{name}.{extra}", "count", "lower"))
    out.append(("trace.coverage", "ratio", "higher"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


def _size(x) -> int:
    """Term count of a sparse value; a plain scalar counts as one term."""
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


def _term_pairs(args) -> int:
    return _size(args[0]) * _size(args[1])


class _Layer:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Installs the wrappers, aggregates spans, and restores discjet on exit.

    Use as a context manager around the traced phase only, so that set-up
    and verification stay unobserved.
    """

    def __init__(self):
        self.layers = {name: _Layer() for name, _, _, _ in LAYERS}
        self.covered_s = 0.0  # time under an outermost span
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------------

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, module, attr, extra in LAYERS:
            home = sys.modules[f"{PACKAGE}.{module}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[fn_name]
                wrapper = self._wrap(name, original, extra)
                holders = [owner]
            else:
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, extra)
                holders = modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()
        return False

    def _wrap(self, name, fn, extra):
        layer = self.layers[name]
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if extra == "term_pairs":
                layer.extra += _term_pairs(args)
            frame = [0.0]
            stack.append(frame)
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = extra == "failed" and result != 0
                return result
            except BaseException:
                failed = True
                raise
            finally:
                took = perf_counter() - start
                stack.pop()
                layer.calls += 1
                layer.self_s += took - frame[0]
                if stack:
                    stack[-1][0] += took
                else:
                    tracer.covered_s += took
                if extra == "failed":
                    layer.extra += failed
                elif extra == "bytes":
                    layer.extra += _file_bytes(args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ---------------------------------------------------------------------

    def metrics(self, traced_s: float, overhead: float) -> dict:
        """Layer metrics; ``traced_s`` is the wall time the spans were taken in,
        ``overhead`` the traced over untraced time of the same ops."""
        out = {}
        for name, _, _, extra in LAYERS:
            layer = self.layers[name]
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
            if extra is not None:
                out[f"{name}.{extra}"] = layer.extra
        out["trace.coverage"] = self.covered_s / traced_s
        out["trace.overhead"] = overhead
        return out


def _file_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
