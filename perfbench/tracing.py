"""Per-layer tracing from outside the program.

Timing wrappers replace ratdyn's public functions in every ratdyn namespace
where callers look them up (``ratdyn.transfer.tree_levels`` and
``ratdyn.ratmap.tree_levels`` are the same function, so both are replaced).
Each wrapped call is a span; a span's self time is its duration minus the
spans it encloses on the same thread. Counters need no span. Nothing here
runs unless a tracer is installed, and ``uninstall`` restores the originals.
"""

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- spans and counters ----------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        self._stack().append(0.0)
        return perf_counter()

    def _exit(self, name, t0):
        dur = perf_counter() - t0
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += dur
        with self._lock:
            s = self.spans[name]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child

    def add(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if after is not None:
                after(self, out, args)
            return out
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def timed_generator(self, name, fn, per_item):
        """Each resume of the generator is one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(name, t0)
                per_item(self, item)
                yield item
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every function in WRAPS wherever a ratdyn module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ratdyn" or n.startswith("ratdyn."))]
        for modname, fname, make in WRAPS:
            orig = getattr(sys.modules[modname], fname)
            wrapper = make(self, fname, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        test_fn = sys.modules["ratdyn.transfer"].TestFunction
        self._undo.append((test_fn, "__call__", test_fn.__call__))
        test_fn.__call__ = self.counted("test_fn", test_fn.__call__)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def totals(self):
        """Plain dict of spans and counts, for merging across processes."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def _span(after=None):
    return lambda tr, fname, fn: tr.timed(fname, fn, after)


def _count(tr, fname, fn):
    return tr.counted(fname, fn)


def _walk_steps(tr, out, args):
    tr.add("walk_steps", out[0].size)


def _cloud_points(tr, out, args):
    tr.add("cloud_points", len(out))


def _integrate_atoms(tr, out, args):
    tr.add("integrate_atoms", len(args[0].atoms))


def _registry_checks(tr, out, args):
    tr.add("registry_checks", len(out["checks"]))


def _expansion_depth(tr, out, args):
    tr._local.expansion = out


def _witness_retries(tr, out, args):
    # simplicity_witness starts at max(1, expansion_time) and deepens
    tr.add("witness_retries", out[0] - max(1, getattr(tr._local, "expansion", out[0])))


def _tree_levels(tr, fname, fn):
    return tr.timed_generator(
        "tree_levels", fn, lambda t, item: t.add("tree_nodes", item[0].size))


# (defining module, function, wrapper factory)
WRAPS = (
    ("ratdyn.numkernel", "roots_with_multiplicity", _span()),
    ("ratdyn.ratmap", "tree_levels", _tree_levels),
    ("ratdyn.ratmap", "preimages", _span()),
    ("ratdyn.ratmap", "evaluate", _count),
    ("ratdyn.julia", "backward_walk", _span(after=_walk_steps)),
    ("ratdyn.julia", "sample_inverse_iteration", _span(after=_cloud_points)),
    ("ratdyn.julia", "critical_points_in_julia", _span()),
    ("ratdyn.measure", "integrate", _span(after=_integrate_atoms)),
    ("ratdyn.measure", "lyubich_exact", _span()),
    ("ratdyn.measure", "lyubich_mc", _span()),
    ("ratdyn.transfer", "kms_iterate", _span()),
    ("ratdyn.transfer", "transfer_E", _span()),
    ("ratdyn.bimodule", "inner_product", _span()),
    ("ratdyn.bimodule", "expansion_time", _span(after=_expansion_depth)),
    ("ratdyn.bimodule", "simplicity_witness", _span(after=_witness_retries)),
    ("ratdyn.bimodule", "normalized_witness", _span()),
    ("ratdyn.registry", "verify", _span(after=_registry_checks)),
)


def merge(into, totals):
    for k, v in totals["spans"].items():
        s = into["spans"].setdefault(k, [0, 0.0, 0.0])
        for i in range(3):
            s[i] += v[i]
    for k, v in totals["counts"].items():
        into["counts"][k] = into["counts"].get(k, 0) + v
    return into


def empty():
    return {"spans": {}, "counts": {}}


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(totals, jobs):
    """Per-layer metrics per job from merged totals.

    ``_s`` metrics are self time where the span has traced children worth
    excluding (roots, sample, exact, mc, kms, witness, integrate), and span
    time otherwise.
    """
    sp, ct = totals["spans"], totals["counts"]

    def calls(n):
        return sp.get(n, [0, 0.0, 0.0])[0]

    def total(n):
        return sp.get(n, [0, 0.0, 0.0])[1]

    def self_(n):
        return sp.get(n, [0, 0.0, 0.0])[2]

    per = {
        "numkernel.roots_calls": (calls("roots_with_multiplicity"), "count"),
        "numkernel.roots_s": (self_("roots_with_multiplicity"), "s"),
        "ratmap.tree_nodes": (ct.get("tree_nodes", 0), "count"),
        "ratmap.tree_s": (total("tree_levels"), "s"),
        "ratmap.preimages_calls": (calls("preimages"), "count"),
        "ratmap.preimages_s": (total("preimages"), "s"),
        "ratmap.evaluate_calls": (ct.get("evaluate", 0), "count"),
        "julia.walk_steps": (ct.get("walk_steps", 0), "walker-steps"),
        "julia.walk_s": (total("backward_walk"), "s"),
        "julia.cloud_points": (ct.get("cloud_points", 0), "count"),
        "julia.sample_s": (self_("sample_inverse_iteration"), "s"),
        "julia.crit_in_julia_s": (total("critical_points_in_julia"), "s"),
        "measure.integrate_atoms": (ct.get("integrate_atoms", 0), "count"),
        "measure.integrate_s": (self_("integrate"), "s"),
        "measure.exact_s": (self_("lyubich_exact"), "s"),
        "measure.mc_s": (self_("lyubich_mc"), "s"),
        "transfer.kms_s": (self_("kms_iterate"), "s"),
        "transfer.test_fn_calls": (ct.get("test_fn", 0), "count"),
        "transfer.expectation_calls": (calls("transfer_E"), "count"),
        "transfer.expectation_s": (total("transfer_E"), "s"),
        "bimodule.witness_s": (self_("normalized_witness")
                               + self_("simplicity_witness"), "s"),
        "bimodule.inner_product_calls": (calls("inner_product"), "count"),
        "bimodule.inner_product_s": (total("inner_product"), "s"),
        "bimodule.expansion_s": (total("expansion_time"), "s"),
        "bimodule.witness_retries": (ct.get("witness_retries", 0), "count"),
        "registry.verify_s": (total("verify"), "s"),
        "registry.checks": (ct.get("registry_checks", 0), "count"),
    }
    out = {k: {"value": v / jobs, "unit": u} for k, (v, u) in per.items()}
    rates = {
        "ratmap.tree_nodes_per_s": ("tree_nodes", "tree_levels"),
        "julia.walk_steps_per_s": ("walk_steps", "backward_walk"),
        "measure.integrate_atoms_per_s": ("integrate_atoms", "integrate"),
    }
    for k, (count, span) in rates.items():
        secs = self_(span) if span == "integrate" else total(span)
        out[k] = {"value": _ratio(ct.get(count, 0), secs), "unit": "1/s"}
    return out
