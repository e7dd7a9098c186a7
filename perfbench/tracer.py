"""Outside-in tracing of the ``singcat`` layers.

Nothing in ``singcat`` knows about this module.  ``SpanTracer`` replaces the
public entry points of each layer module, at every place in the package that
binds them (``toric.mat_rank`` as well as ``linalg.rank``), by wrappers that
record a span: layer, entry point, parent span, start and end.  A call made
from inside the same layer opens no new span, so a span marks a crossing of a
layer boundary and a layer's self time is its spans' time minus the time of
their child spans.  Spans are kept in memory and written out when the run
ends.  Counters that the per-layer metrics need are taken at the same
boundaries.

``CallCounter`` counts field operations and monomial-order key calls.  These
happen millions of times, so they are counted in a separate pass that records
no spans and whose timings are not reported.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import itertools
import json
import sys
from time import perf_counter

PACKAGE = "singcat"

# Layers whose public entry points open spans.
LAYERS = ("linalg", "modgb", "quotient", "modules", "homs", "findim",
          "matfac", "toric", "sodcheck", "ncdef")

LINALG_CALLS = ("rank", "rref", "kernel_basis", "solve")

COUNT_NAMES = (
    "modgb.gb_builds", "modgb.basis_elems", "modgb.max_basis",
    "linalg.calls", "linalg.entries",
    "toric.profiles", "toric.cohomology_calls", "toric.chambers",
    "homs.hom_calls", "homs.ext_calls", "modules.resolutions",
    "matfac.mf_homs", "quotient.normal_forms", "ncdef.steps",
    "findim.algebras",
)

FIELD_OPS = ("add", "sub", "mul", "div", "inv", "neg")


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))}


def _rebind(original, replacement):
    """Point every module-level name in the package bound to `original` at
    `replacement`."""
    for mod in _modules().values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _entry_points(mod):
    """(owner, attribute, label, kind) for each public function of `mod`, and
    each public method, property or class method of a class it defines."""
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") \
                or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in sorted(vars(obj).items()):
                label = f"{name}.{attr}"
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, property):
                    out.append((obj, attr, label, "property"))
                elif isinstance(member, classmethod):
                    out.append((obj, attr, label, "classmethod"))
                elif callable(member) and not isinstance(member, staticmethod):
                    out.append((obj, attr, label, "method"))
        elif callable(obj):
            out.append((mod, name, name, "function"))
    return out


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Records the execution of each package module as a span of its layer,
    so that a layer a workload never calls still shows the time its module
    body took."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        layer = fullname.rpartition(".")[2]

        def traced_exec(module):
            self.tracer.call(layer, "<import>", exec_module, (module,), {})

        spec.loader.exec_module = traced_exec
        return spec


class SpanTracer:
    def __init__(self):
        self.spans = []   # [layer, label, parent index, start, end]
        self.stack = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    # -- recording --------------------------------------------------------------

    def call(self, layer, label, fn, args, kw):
        spans, stack = self.spans, self.stack
        index = len(spans)
        span = [layer, label, stack[-1] if stack else -1, perf_counter(), None]
        spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kw)
        finally:
            stack.pop()
            span[4] = perf_counter()

    def root(self, label, fn):
        """Run `fn` as the root span of one operation (or of the set-up)."""
        return self.call("bench", label, fn, (), {})

    def _wrap(self, layer, label, fn, on_enter=None, after=None):
        spans, stack = self.spans, self.stack
        call = self.call

        def traced(*args, **kw):
            if stack and spans[stack[-1]][0] == layer:
                result = fn(*args, **kw)
            else:
                if on_enter is not None:
                    on_enter(args)
                result = call(layer, label, fn, args, kw)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -------------------------------------------------------------

    def install_import_spans(self):
        sys.meta_path.insert(0, _ImportSpans(self))

    def install(self):
        """Wrap the entry points of every layer; call after importing the
        package and before building any input."""
        mods = _modules()
        hooks = self._hooks()
        for layer in LAYERS:
            mod = mods[f"{PACKAGE}.{layer}"]
            for owner, attr, label, kind in _entry_points(mod):
                member = vars(owner)[attr]
                on_enter, after = hooks.get(f"{layer}.{label}", (None, None))
                if kind == "property":
                    wrapped = property(self._wrap(layer, label, member.fget,
                                                  on_enter, after),
                                       member.fset, member.fdel, member.__doc__)
                elif kind == "classmethod":
                    wrapped = classmethod(self._wrap(layer, label,
                                                     member.__func__,
                                                     on_enter, after))
                else:
                    wrapped = self._wrap(layer, label, member, on_enter, after)
                if kind == "function":
                    _rebind(member, wrapped)
                else:
                    setattr(owner, attr, wrapped)
        self._count_private(mods)

    def _hooks(self):
        """Counters at public entry points, keyed by '<layer>.<entry>':
        (on_enter, after).  on_enter runs when a call crosses into the
        layer; after runs on every call, also from inside the layer."""
        c = self.counts

        def bump(name):
            def after(_args, _result):
                c[name] += 1
            return after

        def gb_built(args, _result):
            size = len(args[0].basis)
            c["modgb.gb_builds"] += 1
            c["modgb.basis_elems"] += size
            c["modgb.max_basis"] = max(c["modgb.max_basis"], size)

        def linalg_entry(args):
            m = args[0]
            c["linalg.calls"] += 1
            c["linalg.entries"] += m.nrows * m.ncols

        hooks = {f"linalg.{name}": (linalg_entry, None)
                 for name in LINALG_CALLS}
        hooks.update({
            "modgb.SubmoduleGB.__init__": (None, gb_built),
            "toric.cohomology": (None, bump("toric.cohomology_calls")),
            "toric.fm_feasible": (None, bump("toric.chambers")),
            "homs.hom_space": (None, bump("homs.hom_calls")),
            "matfac.mf_stable_hom": (None, bump("matfac.mf_homs")),
            "quotient.QuotientRing.normal_form":
                (None, bump("quotient.normal_forms")),
            "ncdef.deform_step": (None, bump("ncdef.steps")),
            "findim.FiniteDimAlgebra.__init__": (None, bump("findim.algebras")),
        })
        return hooks

    def _count_private(self, mods):
        """Count calls of three private helpers; they open no span."""
        c = self.counts
        toric = mods[f"{PACKAGE}.toric"]
        cech_profile = toric._cech_profile

        def counted_profile(fan, plus_rays):
            before = len(fan._profile_memo)
            profile = cech_profile(fan, plus_rays)
            c["toric.profiles"] += len(fan._profile_memo) > before
            return profile

        _rebind(cech_profile, counted_profile)
        for helper, name in (("homs._ext_subquotient", "homs.ext_calls"),
                             ("modules._resolve", "modules.resolutions")):
            module, _, attr = helper.partition(".")
            original = getattr(mods[f"{PACKAGE}.{module}"], attr)

            def counted(*args, _original=original, _name=name):
                c[_name] += 1
                return _original(*args)

            _rebind(original, counted)

    # -- results --------------------------------------------------------------------

    def self_times(self):
        """Seconds per layer: span time minus the time of child spans."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        out = {}
        for s, t in zip(self.spans, own):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def metrics(self):
        times = self.self_times()
        out = {f"{layer}.self_s": times.get(layer, 0.0)
               for layer in LAYERS}
        out.update(self.counts)
        return out

    def write(self, path):
        """One JSON object per span: id, parent, layer, entry, start, end."""
        with open(path, "w") as fh:
            for i, (layer, label, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent,
                                     "layer": layer, "entry": label,
                                     "start": start, "end": end}) + "\n")


class CallCounter:
    """Counts field operations and order-key calls; records no time."""

    def __init__(self):
        self._field_ops = itertools.count()
        self._order_keys = itertools.count()

    def install(self):
        """Call after importing the package and before building any ring:
        a ring keeps the order key it was built with."""
        mods = _modules()
        fields, poly = mods[f"{PACKAGE}.fields"], mods[f"{PACKAGE}.poly"]
        for cls in vars(fields).values():
            if isinstance(cls, type) and issubclass(cls, fields.Field):
                for op in FIELD_OPS:
                    if op in vars(cls):
                        setattr(cls, op, self._count(vars(cls)[op],
                                                     self._field_ops))
        for order, key in list(poly.ORDER_KEYS.items()):
            counted = self._count(key, self._order_keys)
            poly.ORDER_KEYS[order] = counted
            _rebind(key, counted)

    @staticmethod
    def _count(fn, counter):
        tick = counter.__next__

        def counted(*args):
            tick()
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def metrics(self):
        # itertools.count yields its current value: the number of calls so far
        return {"fields.ops": next(self._field_ops),
                "poly.order_key_calls": next(self._order_keys)}
