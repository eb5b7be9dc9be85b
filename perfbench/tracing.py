"""Span recording around nullcert's public functions, and self-time arithmetic.

The package is not instrumented.  `Tracer.installed()` replaces each public
function listed in `TRACED` with a recorder, in the module that defines it
and in every nullcert module that imported the name directly (``search``
does ``from .certify import symmetric_pair_certificate``, ``certify`` does
``from .sets import restricted_combine``, and so on).  Leaving the context
puts the originals back.

A span is ``[id, name, start, end, parent_id, op_id, note]``; times come
from ``time.perf_counter``.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


def _verdict(cert):
    return cert.verdict


def _length(text):
    return len(text)


# (module, attribute, note) for every traced callable.  An attribute of the
# form "Class.method" is patched on the class.  A note function turns the
# call's result into the span's note.
TRACED = (
    ("cli", "main", None),
    ("search", "exhaustive_verify", None),
    ("search", "hunt_counterexample", None),
    ("search", "construct_tight_example", None),
    ("search", "Report.to_json", _length),
    ("certify", "additive_cover_certificate", _verdict),
    ("certify", "multiplicative_cover_certificate", _verdict),
    ("certify", "hyperbola_cover_certificate", _verdict),
    ("certify", "symmetric_pair_certificate", _verdict),
    ("certify", "verify_certificate", None),
    ("certify", "Certificate.to_json", _length),
    ("certify", "Certificate.from_json", None),
    ("sets", "restricted_combine", None),
    ("sets", "representations", None),
    ("sets", "full_combine", None),
    ("sets", "unique_rep_elements", None),
    ("sets", "symmetric_pair_elements", None),
    ("sets", "inverse_set", None),
    ("sets", "negate_set", None),
    ("sets", "dyson_transform", None),
    ("sets", "exceptional_square_set", None),
    ("sets", "group_identity", None),
    ("poly", "line_product", None),
    ("poly", "top_coefficient_interpolation", None),
    ("poly", "interpolation_term", None),
    ("poly", "min_degree_feasibility", None),
    ("poly", "feasible_exceptional_points", None),
    ("field", "find_prime_with_subgroup", None),
    ("field", "primitive_root_of_unity", None),
    ("field", "smallest_generator", None),
)

MODULES = ("cli", "search", "certify", "sets", "poly", "field")


class Tracer:
    """Records spans for calls made while `installed()` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str, fn, note=None):
        """`fn` wrapped so that each call records one span named `name`."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), name, clock(), 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[6] = note(result)
                return result
            except BaseException as exc:
                record[6] = type(exc).__name__
                raise
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def run(self, op_id: int, name: str, fn):
        """Call `fn()` under a root span `bench.<name>`; its calls share `op_id`."""
        self.op = op_id
        try:
            return self.span(f"bench.{name}", fn)()
        finally:
            self.op = None

    def reset(self) -> list[list]:
        """Hand back the recorded spans and start an empty list."""
        done = list(self.spans)
        self.spans.clear()
        return done

    @contextlib.contextmanager
    def installed(self):
        """Patch every callable in `TRACED`; restore the originals on exit."""
        restore: list[tuple[object, str, object]] = []
        loaded = [sys.modules[key] for key in sorted(sys.modules)
                  if key == "nullcert" or key.startswith("nullcert.")]
        try:
            for module_name, attr, note in TRACED:
                module = sys.modules[f"nullcert.{module_name}"]
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.span(name, raw.__func__, note))
                    else:
                        patched = self.span(name, raw, note)
                    restore.append((cls, meth, raw))
                    setattr(cls, meth, patched)
                    continue
                original = getattr(module, attr)
                wrapped = self.span(name, original, note)
                for holder in loaded:
                    if holder.__dict__.get(attr) is original:
                        restore.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children may nest further or overlap one another; covered time is the
    length of the union of the children's intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span in spans:
        sid, start, end = span[0], span[2], span[3]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo = max(lo, reach)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


# per-layer metric -> traced names whose self times it sums
SELF_TIME_METRICS = {
    "search.exhaustive_self_s": ("search.exhaustive_verify",),
    "search.hunt_self_s": ("search.hunt_counterexample",),
    "search.report_json_s": ("search.Report.to_json",),
    "certify.build_self_s.additive": ("certify.additive_cover_certificate",),
    "certify.build_self_s.mult": ("certify.multiplicative_cover_certificate",),
    "certify.build_self_s.cover": ("certify.hyperbola_cover_certificate",),
    "certify.build_self_s.main": ("certify.symmetric_pair_certificate",),
    "certify.verify_self_s": ("certify.verify_certificate",),
    "certify.json_s": ("certify.Certificate.to_json", "certify.Certificate.from_json"),
    "sets.restricted_combine_s": ("sets.restricted_combine",),
    "sets.representations_s": ("sets.representations",),
    "sets.other_s": tuple(
        f"sets.{attr}" for module, attr, _ in TRACED
        if module == "sets" and attr not in ("restricted_combine", "representations")
    ),
    "poly.line_product_s": ("poly.line_product",),
    "poly.interpolation_s": ("poly.top_coefficient_interpolation", "poly.interpolation_term"),
    "poly.feasibility_s": ("poly.min_degree_feasibility", "poly.feasible_exceptional_points"),
    "field.root_search_s": (
        "field.find_prime_with_subgroup",
        "field.primitive_root_of_unity",
        "field.smallest_generator",
    ),
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass, with `<module>.self_s` per module."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    for span in spans:
        by_name[span[1]] = by_name.get(span[1], 0.0) + selfs[span[0]]
    out = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    names = {span[0]: span[1] for span in spans}
    replays = [
        span for span in spans
        if span[1] == "certify.symmetric_pair_certificate"
        and span[4] is not None and module_of(names[span[4]]) == "search"
    ]
    useful = sum(1 for span in replays if span[6] != "DirectlySatisfied")
    out["search.replay_calls"] = len(replays)
    out["search.replay_useful_ratio"] = useful / len(replays) if replays else 0.0
    out["search.report_bytes"] = sum(
        span[6] for span in spans if span[1] == "search.Report.to_json" and span[6]
    )
    out["sets.calls"] = sum(1 for span in spans if module_of(span[1]) == "sets")
    for module in MODULES + ("bench",):
        out[f"{module}.self_s"] = sum(
            t for name, t in by_name.items() if module_of(name) == module
        )
    return out
