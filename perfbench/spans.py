"""Spans around calls into torigen's layers, for the traced run only.

Tracer.install wraps every public function of each layer module, at every
place a torigen module holds it: genus imports exact_div by name, so
wrapping exactalg.exact_div alone would miss the calls genus makes. Each span
records the layer, the function, start, end, the enclosing span, and the
sizes at the boundary: chi and n of a fixed-point table, the denominator
degree of localization data, and the term count of the result. Products of
the three polynomial classes are counted, not spanned: they run hundreds of
thousands of times per job.

summarize turns the spans of one job into per-layer figures: busy time (the
union of the layer's spans), self time (busy time minus time in nested spans
of other layers) and call counts.
"""

import importlib
import inspect
import sys
import time

LAYERS = ("cli", "rootdata", "genus", "exactalg", "symmfunc", "chern", "divdiff", "stablex")

# Per-term helpers: MultiPoly calls clean once per term and sorting calls
# grlex_key once per key, so a span on either costs more than the work it
# times. Their time stays in the caller's span.
SKIP = {"exactalg.clean", "exactalg.grlex_key"}

COUNTED = {
    "cob_mul": ("exactalg", "CobordismPoly"),
    "series_mul": ("exactalg", "GradedSeries"),
    "poly_mul": ("exactalg", "MultiPoly"),
}

# Named metric -> the functions whose spans it sums (union of their intervals).
NAMED = {
    "genus.cobordism_class_s": ("genus.cobordism_class",),
    "genus.s_numbers_s": ("genus.s_numbers",),
    "genus.localization_data_s": ("genus.localization_data",),
    "exactalg.exact_div_s": ("exactalg.exact_div", "exactalg.exact_div_terms"),
    "genus.low_vanishing_s": ("genus.verify_low_vanishing",),
    "genus.weyl_invariance_s": ("genus.weyl_invariance_ok",),
    "genus.numeric_s": ("genus.s_number_numeric", "genus.default_numeric_point"),
    "divdiff.flag_class_s": ("divdiff.flag_class",),
    "divdiff.grassmann_class_s": ("divdiff.grassmann_class",),
    "divdiff.flag_vanishing_s": ("divdiff.flag_vanishing_checks",),
    "chern.beta_matrix_s": ("chern.beta_matrix",),
    "symmfunc.monomial_to_elementary_s": ("symmfunc.monomial_to_elementary",),
    "chern.s_to_chern_s": ("chern.s_to_chern",),
    "symmfunc.monomial_sym_s": ("symmfunc.monomial_sym",),
    "stablex.enumerate_feasible_s": ("stablex.enumerate_feasible",),
    "stablex.check_necessary_s": ("stablex.check_necessary",),
    "rootdata.fixed_point_weights_s": ("rootdata.fixed_point_weights",),
}
COUNT_METRICS = {
    "exactalg.cob_mul_calls": "cob_mul",
    "exactalg.series_mul_calls": "series_mul",
    "exactalg.poly_mul_calls": "poly_mul",
}

# span record fields
LAYER, NAME, START, END, PARENT, CHI, N, DDEG, TERMS = range(9)


class Tracer:
    """Installs the wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.installed = []

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module("torigen." + layer)
            except ImportError:
                continue
        holders = [m for name, m in list(sys.modules.items())
                   if name == "torigen" or name.startswith("torigen.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                qual = layer + "." + name
                if (name.startswith("_") or qual in SKIP or isinstance(obj, type)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapper = self._span(layer, qual, obj)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is obj:
                            setattr(holder, attr, wrapper)
                self.installed.append(qual)
        for key, (layer, cls_name) in COUNTED.items():
            cls = getattr(modules.get(layer), cls_name, None)
            if cls is None or "__mul__" not in vars(cls):
                continue
            self.counts[key] = 0
            for dunder in ("__mul__", "__rmul__"):
                if dunder in vars(cls):
                    setattr(cls, dunder, self._counter(key, vars(cls)[dunder]))

    def _span(self, layer, qual, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [layer, qual, clock(), 0.0, stack[-1] if stack else -1, None, None, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            _sizes(rec, args, result)
            return result
        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(self_, other):
            counts[key] += 1
            return fn(self_, other)
        return counted

    def report(self):
        return {"spans": self.spans, "counts": self.counts, "installed": self.installed}


def _sizes(rec, args, result):
    for a in args:
        if isinstance(a, list) and a and isinstance(a[0], tuple) and hasattr(a[0], "weights"):
            rec[CHI], rec[N] = len(a), len(a[0].weights)
            break
        if hasattr(a, "signed_roots"):
            rec[N] = a.n
            break
    if hasattr(result, "denom") and hasattr(result, "cofactors"):
        rec[DDEG] = result.denom.degree()
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        rec[TERMS] = len(terms)
    elif isinstance(result, (dict, list)):
        rec[TERMS] = len(result)


def summarize(spans, into):
    """Add one job's per-layer busy/self/calls and named times to `into`."""
    layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    group_bits = {}
    for i, quals in enumerate(NAMED.values()):
        for q in quals:
            group_bits[q] = group_bits.get(q, 0) | (1 << i)
    names = list(NAMED)
    lmask = [0] * len(spans)
    gmask = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        parent = rec[PARENT]
        plm = lmask[parent] if parent >= 0 else 0
        pgm = gmask[parent] if parent >= 0 else 0
        bit = layer_bit[rec[LAYER]]
        gbits = group_bits.get(rec[NAME], 0)
        lmask[i] = plm | bit
        gmask[i] = pgm | gbits
        if parent >= 0:
            child_time[parent] += dur
        layer = rec[LAYER]
        into[layer + ".calls"] += 1
        if not plm & bit:
            into[layer + ".busy_s"] += dur
        fresh = gbits & ~pgm
        k = 0
        while fresh:
            if fresh & 1:
                into[names[k]] += dur
            fresh >>= 1
            k += 1
    for i, rec in enumerate(spans):
        into[rec[LAYER] + ".self_s"] += rec[END] - rec[START] - child_time[i]


def empty_totals():
    out = {}
    for layer in LAYERS:
        out[layer + ".busy_s"] = 0.0
        out[layer + ".self_s"] = 0.0
        out[layer + ".calls"] = 0
    for name in NAMED:
        out[name] = 0.0
    for name in COUNT_METRICS:
        out[name] = 0
    return out
