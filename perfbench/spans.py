"""Outside-in tracing of adjvar's layers for the traced benchmark run.

Wrappers are installed on public functions of the adjvar modules: in the
defining module and in every adjvar module that bound the same object by
``from .x import name``.  Each wrapped call records a span (name, start, end,
parent span, item id) while an item is running; calls made outside an item,
such as set-up or the output gate, are not recorded.  A span's self time is
its duration minus the duration of its child spans.

Three hot leaves are not recorded as spans.  ``BiPoly.__mul__`` (and
``__rmul__``) is timed and counted, and its time is moved out of the
enclosing span's self time.  ``simple_reflection`` and the
``RootDatum.root_half_norms`` property are only counted, so their time stays
in the caller's self time.  Leaf counts are also attached to the enclosing
span.

Work counts (calls and named counts) are kept per item and merged only for
items that completed, so an item stopped at its deadline cannot make two
traced runs disagree.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

SPAN = "span"
LEAF = "leaf"  # timed and counted, no span record
COUNT = "count"  # counted only

MODULES = ("rootsystem", "weylgroup", "parabolic", "repcalc", "bbw", "adjoint",
           "bipoly", "folforms")


def _weights_of(_args, result):
    return len(result.entries)


def _term_pairs(args, _result):
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


# (module, attribute, mode, named work count); the layer is the attribute's
# last component without underscores, so BiPoly.__mul__ is bipoly.mul.
# Functions no per-layer metric names are wrapped too, so that their time is
# charged to their own module's self_s and not to their caller's.
TARGETS = (
    ("rootsystem", "build_datum", SPAN, None),
    ("rootsystem", "highest_root", SPAN, None),
    ("rootsystem", "dim_g", SPAN, None),
    ("rootsystem", "weyl_vector", SPAN, None),
    ("rootsystem", "RootDatum.root_half_norms", COUNT, None),
    ("weylgroup", "dot_classify", SPAN, None),
    ("weylgroup", "simple_reflection", COUNT, None),
    ("parabolic", "levi_diagram", SPAN, None),
    ("parabolic", "is_bundle_weight", SPAN, None),
    ("parabolic", "branch_to_levi", SPAN, None),
    ("parabolic", "lift_to_ambient", SPAN, None),
    ("parabolic", "nilradical_size", SPAN, None),
    ("repcalc", "weyl_dim", SPAN, None),
    ("repcalc", "weight_system", SPAN, ("weights", _weights_of)),
    ("repcalc", "ambient_weight_system", SPAN, None),
    ("repcalc", "square_decompose", SPAN, None),
    ("repcalc", "square_decompose_simple", SPAN, None),
    ("repcalc", "bundle_rank", SPAN, None),
    ("bbw", "cohomology", SPAN, None),
    ("bbw", "cohomology_of_decomposition", SPAN, None),
    ("adjoint", "adjoint_data", SPAN, None),
    ("adjoint", "wedge2_Ddual_twisted", SPAN, None),
    ("adjoint", "h0_omega2", SPAN, None),
    ("adjoint", "compare_with_printed", SPAN, None),
    ("adjoint", "section4_row", SPAN, None),
    ("bipoly", "BiPoly.__mul__", LEAF, ("term_pairs", _term_pairs)),
    ("bipoly", "poly_divexact", SPAN, None),
    ("bipoly", "poly_gcd", SPAN, None),
    ("bipoly", "poly_gcd_list", SPAN, None),
    ("bipoly", "reduce_mod_quadric", SPAN, None),
    ("bipoly", "is_zero_mod_quadric", SPAN, None),
    ("bipoly", "divide_by_var_mod_quadric", SPAN, None),
    ("folforms", "form_wedge", SPAN, None),
    ("folforms", "form_d", SPAN, None),
    ("folforms", "integrable", SPAN, None),
    ("folforms", "is_invariant", SPAN, None),
    ("folforms", "has_divisorial_singularities", SPAN, None),
    ("folforms", "tangency_degree", SPAN, None),
    ("folforms", "foliation_from_fields", SPAN, None),
    ("folforms", "same_foliation", SPAN, None),
    ("folforms", "builtin_affine", SPAN, None),
    ("folforms", "builtin_torus", SPAN, None),
)


class Recorder:
    """Span stack, per-pass tallies and the span log of one traced run."""

    def __init__(self):
        self.item = None  # id of the running item; None outside items
        self.stack = []  # frames: [span index, start, child seconds, leaf counts]
        self.spans = []  # (name, start, end, parent index or -1, item, leaf counts)
        self.keep_spans = True
        self.self_s = defaultdict(float)  # layer -> self seconds, this pass
        self.counts = Counter()  # completed items only, this pass
        self._item_counts = Counter()

    # -- items and passes --------------------------------------------------
    def begin_item(self, item_id):
        self.item = item_id
        self._item_counts = Counter()

    def end_item(self, completed: bool):
        if completed:
            self.counts.update(self._item_counts)
        self.item = None
        self.stack.clear()

    def take_pass(self):
        """Return and reset this pass's (self seconds, counts)."""
        out = (dict(self.self_s), dict(self.counts))
        self.self_s = defaultdict(float)
        self.counts = Counter()
        return out

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, work):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.item is None:
                return fn(*args, **kwargs)
            stack = rec.stack
            index = -1
            if rec.keep_spans:
                index = len(rec.spans)
                rec.spans.append(None)
            frame = [index, perf_counter(), 0.0, None]
            stack.append(frame)
            rec._item_counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    rec._item_counts[name + "." + work[0]] += work[1](args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                rec.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    parent = stack[-1][0] if stack else -1
                    rec.spans[index] = (name, frame[1], end, parent, rec.item, frame[3])

        return wrapper

    def _leaf(self, name, fn, work, timed):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.item is None:
                return fn(*args, **kwargs)
            rec._item_counts[name + ".calls"] += 1
            if rec.stack:
                frame = rec.stack[-1]
                if frame[3] is None:
                    frame[3] = Counter()
                frame[3][name] += 1
            if not timed:
                return fn(*args, **kwargs)
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            rec.self_s[name] += duration
            if rec.stack:
                rec.stack[-1][2] += duration
            if work is not None:
                rec._item_counts[name + "." + work[0]] += work[1](args, result)
            return result

        return wrapper

    def wrap(self, name, fn, mode, work):
        if mode == SPAN:
            return self._span(name, fn, work)
        return self._leaf(name, fn, work, timed=(mode == LEAF))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item, leaves in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "item": item}
                if leaves:
                    rec["leaf_calls"] = dict(leaves)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _adjvar_modules():
    return [importlib.import_module("adjvar." + m) for m in MODULES] + [
        importlib.import_module("adjvar")
    ]


class Installation:
    """Wrappers installed on adjvar; ``remove`` restores every original."""

    def __init__(self, recorder: Recorder):
        self.undo = []  # (owner, attribute, original)
        modules = _adjvar_modules()
        for module_name, path, mode, work in TARGETS:
            name = f"{module_name}.{path.split('.')[-1].strip('_')}"
            home = importlib.import_module("adjvar." + module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(recorder.wrap(name, original.fget, mode, work))
                    self._set(cls, attr, wrapped)
                else:
                    wrapped = recorder.wrap(name, original, mode, work)
                    for other in [a for a, v in cls.__dict__.items() if v is original]:
                        self._set(cls, other, wrapped)
                continue
            original = getattr(home, path)
            wrapped = recorder.wrap(name, original, mode, work)
            for module in modules:
                if getattr(module, path, None) is original:
                    self._set(module, path, wrapped)

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def layer_metrics(self_s: dict, counts: dict, names) -> dict:
    """Values of the per-layer metrics ``names`` in one traced pass (all but
    the overhead).

    ``<module>.self_s`` sums the self time of every wrapped function of the
    module; ``adjoint.decompositions_per_row`` is square_decompose calls per
    section4_row call (0 when no row was computed)."""
    module_self = defaultdict(float)
    for name, seconds in self_s.items():
        module_self[name.split(".")[0]] += seconds
    out = {}
    for metric in names:
        if metric.endswith(".self_s"):
            key = metric[: -len(".self_s")]
            out[metric] = self_s.get(key, 0.0) if "." in key else module_self[key]
        elif metric == "adjoint.decompositions_per_row":
            rows = counts.get("adjoint.section4_row.calls", 0)
            decs = counts.get("repcalc.square_decompose.calls", 0)
            out[metric] = decs / rows if rows else 0
        elif metric != "trace.overhead_share":
            out[metric] = counts.get(metric, 0)
    return out
