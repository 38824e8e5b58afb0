"""
Outside-in tracing of the essedge layers.

`traced(recorder)` wraps each layer's public functions for the duration of
a `with` block.  A wrapped function records a span: its call count and its
self time (span time minus the time covered by child spans) under the
layer's name.  Some wrappers also count outcomes, such as whether a coset
enumeration completed.

A module that did `from .coset import coset_enumeration` holds its own
reference, so wrapping the defining module alone would miss those calls.
Each traced name is therefore rebound in every essedge module that holds
the original function.  Methods are wrapped on their class.
"""
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Per-layer calls and self time, outcome tallies and distinct keys."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.tally = Counter()
        self.keys = defaultdict(set)
        self.root_s = 0.0  # time inside outermost spans
        self._children = []

    def count(self, name, hit):
        """Tally one outcome: name.n counts attempts, name.hits the hits.
        Every span tallies <function>.raised."""
        self.tally[name + ".n"] += 1
        self.tally[name + ".hits"] += bool(hit)

    def frac(self, name):
        n = self.tally[name + ".n"]
        return self.tally[name + ".hits"] / n if n else 0.0

    def wrap(self, layer, fn, observe=None):
        raised_key = fn.__name__ + ".raised"

        def span(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = perf_counter() - start
                self.self_s[layer] += elapsed - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed
                else:
                    self.root_s += elapsed
                self.count(raised_key, raised)
            if observe is not None:
                observe(self, result, *args, **kwargs)
            return result
        span.__wrapped__ = fn
        return span

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.tally[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


def _presentation_key(presentation):
    return presentation.generator_count, presentation.relators


def _decided(rec, result, *args, **kwargs):
    rec.count("decide.definite", result.answer != "unknown")


def _rewrite(rec, result, presentation, word, budget):
    rec.count("decide.rewrite.hit", result is not None)


def _quotient(rec, result, presentation, predicate, budget):
    found, complete = result
    rec.count("decide.quotient.hit", found is not None)
    rec.count("decide.quotient.exhausted", not complete)
    rec.keys["decide.quotient"].add((_presentation_key(presentation),
                                     budget.quotient_degree))


def _coset(rec, result, presentation, subgroup_words=(), max_cosets=10000):
    rec.count("coset.complete", result is not None)
    rec.keys["coset"].add((_presentation_key(presentation),
                           tuple(tuple(h) for h in subgroup_words),
                           max_cosets))


# (layer, module, function, outcome observer)
SPANS = (
    ("skeleton", "essedge.skeleton", "build_skeleton", None),
    ("moves", "essedge.moves", "pillow_0_2", None),
    ("moves", "essedge.moves", "pachner_2_3", None),
    ("moves", "essedge.moves", "pachner_3_2", None),
    ("angles", "essedge.angles", "solve_angle_lp", None),
    ("linprog", "essedge.linprog", "solve_lp", None),
    ("fundamental", "essedge.fundamental", "presentation_closed", None),
    ("snf", "essedge.snf", "in_column_span", None),
    ("decide", "essedge.decide", "decide_word", _decided),
    ("decide", "essedge.decide", "decide_membership", _decided),
    ("decide", "essedge.decide", "decide_double_coset", _decided),
    ("decide.rewrite", "essedge.decide", "rewrite_search", _rewrite),
    ("decide.quotient", "essedge.decide", "quotient_search", _quotient),
    ("decide.factor", "essedge.decide", "_product_table", None),
    ("coset", "essedge.coset", "coset_enumeration", _coset),
    ("shapes", "essedge.shapes", "solve_shapes_newton", None),
    ("shapes", "essedge.shapes", "verify_shapes", None),
    ("shapes", "essedge.shapes", "completeness_products", None),
    ("develop", "essedge.develop", "develop_and_scan", None),
    ("certify", "essedge.certify", "certify_strongly_essential", None),
    ("certify", "essedge.certify", "certify_essential", None),
)
# (layer, module, class, method): the spine's word bookkeeping runs lazily
# from inside certify, so its methods are spans of their own
METHOD_SPANS = tuple(
    ("fundamental", "essedge.fundamental", "SpineData", name)
    for name in ("__init__", "peripheral", "edge_loop_word",
                 "parallel_test_data"))
# (tally name, module, function): counted, not timed
COUNTERS = (("linprog.pivots", "essedge.linprog", "_pivot"),)


def _essedge_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "essedge"
                                  or name.startswith("essedge."))]


def _rebind(original, replacement, undo):
    """Point every essedge module's reference to original at replacement."""
    for module in _essedge_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextmanager
def traced(recorder):
    """Route every traced function through recorder inside the block."""
    undo = []
    try:
        for layer, module, name, observe in SPANS:
            original = getattr(sys.modules[module], name)
            _rebind(original, recorder.wrap(layer, original, observe), undo)
        for name, module, fn_name in COUNTERS:
            original = getattr(sys.modules[module], fn_name)
            _rebind(original, recorder.counter(name, original), undo)
        for layer, module, cls_name, name in METHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[name]
            setattr(cls, name, recorder.wrap(layer, original))
            undo.append((cls, name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

