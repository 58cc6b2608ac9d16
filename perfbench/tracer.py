"""Per-layer tracing of ufdlab from outside the library.

The tracer wraps the public functions of each module at its layer boundary:
the module attribute and the same object under every name any ufdlab module
imported it as (claims, for one, holds its own `buchberger`).  Methods are
wrapped on their classes.  Nothing under the library's source tree changes;
`uninstall` puts every original back.

Three kinds of wrapper:
  span   records (name, op id, parent span, start, end, child time) in memory;
  leaf   hot functions (millions of calls on gb) that are aggregated per
         operation as calls and self time, to keep memory bounded;
  count  field arithmetic, counted only: per-call timing would swamp it.

Self time is a frame's duration minus the time its direct children cover.
A call re-entering the frame it is already in (`__sub__` calling `__add__`)
is folded into that frame.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns

# (metric layer name, wrapper kind, [(module, attribute), ...])
FUNCTIONS = [
    ("coeff.prime_avoid", "span", [("ufdlab.coeff", "prime_avoid")]),
    ("poly.parse", "span", [("ufdlab.poly", "parse_poly")]),
    ("groebner.buchberger", "span", [("ufdlab.groebner", "buchberger")]),
    ("groebner.divide", "span", [("ufdlab.groebner", "divide")]),
    ("groebner.ideal_equal", "span", [("ufdlab.groebner", "ideal_equal")]),
    ("groebner.intersect", "span", [("ufdlab.groebner", "intersect")]),
    ("groebner.saturation", "span", [("ufdlab.groebner", "saturation")]),
    ("groebner.brute_force_member", "span", [("ufdlab.groebner", "brute_force_member")]),
    ("groebner.brute_force_irreducible", "span",
     [("ufdlab.groebner", "brute_force_irreducible")]),
    ("constructions.w_chain", "span", [("ufdlab.constructions", "w_chain")]),
    ("constructions.lemma_level_check", "span",
     [("ufdlab.constructions", "lemma_level_check")]),
    ("constructions.jacobian_tangent_dim", "span",
     [("ufdlab.constructions", "jacobian_tangent_dim")]),
    ("constructions.builders", "span", [
        ("ufdlab.constructions", "pham_brieskorn"),
        ("ufdlab.constructions", "trinomial_ring"),
        ("ufdlab.constructions", "threefold_family"),
    ]),
    ("omega.normal_form", "span", [("ufdlab.omega", "normal_form")]),
    ("counterexample.expand", "span", [
        ("ufdlab.counterexample", "expand_z0"),
        ("ufdlab.counterexample", "expand_z0_bprime"),
        ("ufdlab.counterexample", "check_expansion_identity"),
    ]),
    ("counterexample.order_certificate", "span", [
        ("ufdlab.counterexample", "m_order_certificate"),
        ("ufdlab.counterexample", "x_order_certificate_bprime"),
    ]),
    ("counterexample.coordinate_checks", "span",
     [("ufdlab.counterexample", "coordinate_checks")]),
    ("claims.run_claim", "span", [("ufdlab.claims", "run_claim")]),
    ("claims.default_params", "span", [("ufdlab.claims", "default_params")]),
    ("cli.schema_validate", "span", [("ufdlab.cli", "_checked_json")]),
]

# (metric layer name, wrapper kind, module, class, [method, ...])
METHODS = [
    ("poly.mul", "leaf", "ufdlab.poly", "Polynomial", ["__mul__", "__rmul__"]),
    ("poly.add", "leaf", "ufdlab.poly", "Polynomial",
     ["__add__", "__radd__", "__sub__", "__rsub__"]),
    ("poly.leading", "leaf", "ufdlab.poly", "Polynomial", ["leading"]),
    ("omega.mul", "leaf", "ufdlab.omega", "OmegaPoly", ["__mul__"]),
]

# Layers that must be called in the timed operations of each workload: if a
# wrapper misses the call path a workload takes, the traced run fails.
MUST_RUN = {
    "suite": ["groebner.brute_force_member", "cli.schema_validate"],  # + every claim
    "gb": ["groebner.buchberger", "groebner.divide", "poly.leading"],
    "reduce": ["groebner.divide", "poly.add"],
    "rewrite": ["omega.normal_form", "omega.mul", "counterexample.expand",
                "counterexample.order_certificate", "counterexample.coordinate_checks"],
}

FIELD_OPS = ["add", "sub", "neg", "mul", "div", "inv"]
FIELD_CLASSES = [("ufdlab.coeff", "PrimeField"), ("ufdlab.coeff", "RationalField")]


def _span_namer(layer):
    if layer == "claims.run_claim":
        return lambda args, kwargs: f"claims.run_claim.{args[0] if args else kwargs['claim_id']}"
    return None


class Tracer:
    """Spans and counters for one traced pass; `install` wraps the library."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset()

    # -- state ----------------------------------------------------------------

    def reset(self) -> None:
        # frame: [name, start_ns, child_ns, span_index, nearest_span_index]
        self.stack: list[list] = []
        self.spans: list = []
        self.op_id = -1
        self.op_roots: dict[int, int] = {}
        self.leaf = defaultdict(lambda: [0, 0])  # (op, name) -> [calls, self_ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- frames ---------------------------------------------------------------

    def _push(self, name: str, is_span: bool) -> list:
        stack = self.stack
        nearest = stack[-1][4] if stack else -1
        if is_span:
            index = len(self.spans)
            self.spans.append((name, self.op_id, nearest))
            frame = [name, 0, 0, index, index]
        else:
            frame = [name, 0, 0, -1, nearest]
        stack.append(frame)
        frame[1] = _now()
        return frame

    def _pop(self, frame: list, end: int) -> None:
        self.stack.pop()
        name, start, child, index, _ = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        own = duration - child
        self.calls[name] += 1
        self.self_ns[name] += own
        self.total_ns[name] += duration
        if index >= 0:
            head = self.spans[index]
            self.spans[index] = head + (start, end, child)
        else:
            acc = self.leaf[(self.op_id, name)]
            acc[0] += 1
            acc[1] += own

    def run_op(self, op_id: int, name: str, fn):
        """Run one benchmark operation as the root span of its own op id."""
        self.op_id = op_id
        self.op_roots[op_id] = len(self.spans)
        frame = self._push(f"op.{name}", True)
        try:
            return fn()
        finally:
            self._pop(frame, _now())

    def _wrap(self, fn, layer: str, kind: str):
        tracer = self
        is_span = kind == "span"
        namer = _span_namer(layer)
        post = _POST.get(layer)

        def traced(*args, **kwargs):
            stack = tracer.stack
            name = namer(args, kwargs) if namer else layer
            if not stack or stack[-1][0] == name:
                # outside an operation, or re-entering the same layer
                return fn(*args, **kwargs)
            frame = tracer._push(name, is_span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._pop(frame, _now())
                raise
            end = _now()
            if post is not None:
                post(tracer, result)
            tracer._pop(frame, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, op: str):
        tracer = self
        is_inv = op == "inv"

        def counted(*args):
            if tracer.stack:
                counts = tracer.counts
                counts["coeff.field_ops"] += 1
                if is_inv:
                    counts["coeff.inv_calls"] += 1
            return fn(*args)

        return counted

    # -- install / uninstall --------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for everything to wrap.  A
        listed module is imported if the workload has not loaded it, and a
        missing name raises."""
        targets = {m for _, _, pairs in FUNCTIONS for m, _ in pairs}
        targets |= {m for _, _, m, _, _ in METHODS} | {m for m, _ in FIELD_CLASSES}
        loaded = {name: importlib.import_module(name) for name in sorted(targets)}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ufdlab" or n.startswith("ufdlab.")) and m is not None]
        plan = []
        for layer, kind, pairs in FUNCTIONS:
            for module_name, attr in pairs:
                original = getattr(loaded[module_name], attr)
                wrapped = self._wrap(original, layer, kind)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            plan.append((m, name, original, wrapped))
        for layer, kind, module_name, cls_name, attrs in METHODS:
            cls = getattr(loaded[module_name], cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                plan.append((cls, attr, original, self._wrap(original, layer, kind)))
        for module_name, cls_name in FIELD_CLASSES:
            cls = getattr(loaded[module_name], cls_name)
            for op in FIELD_OPS:
                original = cls.__dict__[op]
                plan.append((cls, op, original, self._count(original, op)))
        return plan

    def install(self) -> None:
        """Wrap every listed function and method (again after `uninstall`)."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_time_errors(self) -> list[str]:
        """Per operation: the self times of its spans and leaf frames must sum
        to the duration of its root span, and every span must have closed."""
        own_by_op: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if len(span) != 6:
                return [f"span {span[0]} never closed"]
            _, op, _, start, end, child = span
            own_by_op[op] += end - start - child
        for (op, _), (_, own) in self.leaf.items():
            own_by_op[op] += own
        errors = []
        for op, root in self.op_roots.items():
            _, _, _, start, end, _ = self.spans[root]
            if own_by_op[op] != end - start:
                errors.append(f"op {op}: self times sum to {own_by_op[op]} ns, "
                              f"span is {end - start} ns")
        return errors

    def root_seconds(self) -> float:
        """Summed duration of the root spans of the timed operations."""
        return sum(self.spans[root][4] - self.spans[root][3]
                   for op, root in self.op_roots.items() if op > 0) / 1e9

    def missing_layers(self, workload: str, claim_ids) -> list[str]:
        """The layers of MUST_RUN[workload] (and, on suite, every claim) that
        no timed operation called."""
        called = {name for name, op, *_ in self.spans if op > 0}
        called |= {name for (op, name), (calls, _) in self.leaf.items() if op > 0 and calls}
        must = list(MUST_RUN[workload])
        if workload == "suite":
            must += [f"claims.run_claim.{cid}" for cid in claim_ids]
        return [f"traced {workload}: no timed operation called {name}"
                for name in must if name not in called]

    def exact_counts(self) -> dict[str, int]:
        """Everything that must repeat exactly between two traced passes."""
        out = {f"{name}.calls": n for name, n in self.calls.items()
               if not name.startswith("op.")}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, op, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "op": op, "parent": parent,
                                     "start_ns": start, "end_ns": end,
                                     "child_ns": child}) + "\n")


def _post_mul(tracer, result):
    tracer.counts["poly.mul.terms_out"] += len(result.terms)


def _post_buchberger(tracer, result):
    tracer.counts["groebner.buchberger.basis_len"] += len(result)


def _post_divide(tracer, result):
    if any(frame[0] == "groebner.buchberger" for frame in tracer.stack):
        tracer.counts["groebner.buchberger.divides"] += 1
        if result[0]:
            tracer.counts["groebner.buchberger.useful_divides"] += 1


def _post_normal_form(tracer, result):
    tracer.counts["omega.normal_form.terms_out"] += sum(
        len(exp.entries) for exp in result.values())


_POST = {
    "poly.mul": _post_mul,
    "groebner.buchberger": _post_buchberger,
    "groebner.divide": _post_divide,
    "omega.normal_form": _post_normal_form,
}


def layer_metrics(tracer: Tracer, claim_ids) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, by name, as (value, unit)."""
    calls, self_ns, total_ns, counts = (
        tracer.calls, tracer.self_ns, tracer.total_ns, tracer.counts)

    def ms(ns):
        return (ns / 1e6, "ms")

    def count(n):
        return (n, "count")

    out = {
        "coeff.field_ops": count(counts["coeff.field_ops"]),
        "coeff.inv_calls": count(counts["coeff.inv_calls"]),
        "coeff.prime_avoid.self_ms": ms(self_ns["coeff.prime_avoid"]),
        "poly.mul.calls": count(calls["poly.mul"]),
        "poly.mul.self_ms": ms(self_ns["poly.mul"]),
        "poly.mul.terms_out": count(counts["poly.mul.terms_out"]),
        "poly.add.calls": count(calls["poly.add"]),
        "poly.add.self_ms": ms(self_ns["poly.add"]),
        "poly.leading.calls": count(calls["poly.leading"]),
        "poly.leading.self_ms": ms(self_ns["poly.leading"]),
        "poly.parse.self_ms": ms(self_ns["poly.parse"]),
        "groebner.buchberger.calls": count(calls["groebner.buchberger"]),
        "groebner.buchberger.self_ms": ms(self_ns["groebner.buchberger"]),
        "groebner.buchberger.basis_len": count(counts["groebner.buchberger.basis_len"]),
        "groebner.buchberger.useful_ratio": (
            counts["groebner.buchberger.useful_divides"]
            / max(1, counts["groebner.buchberger.divides"]), "ratio"),
        "groebner.divide.calls": count(calls["groebner.divide"]),
        "groebner.divide.self_ms": ms(self_ns["groebner.divide"]),
    }
    for layer in ("ideal_equal", "intersect", "saturation", "brute_force_member"):
        out[f"groebner.{layer}.calls"] = count(calls[f"groebner.{layer}"])
        out[f"groebner.{layer}.self_ms"] = ms(self_ns[f"groebner.{layer}"])
    out["groebner.brute_force_irreducible.self_ms"] = ms(
        self_ns["groebner.brute_force_irreducible"])
    for layer in ("w_chain", "lemma_level_check", "jacobian_tangent_dim", "builders"):
        out[f"constructions.{layer}.self_ms"] = ms(self_ns[f"constructions.{layer}"])
    out["omega.normal_form.calls"] = count(calls["omega.normal_form"])
    out["omega.normal_form.self_ms"] = ms(self_ns["omega.normal_form"])
    out["omega.normal_form.terms_out"] = count(counts["omega.normal_form.terms_out"])
    out["omega.mul.calls"] = count(calls["omega.mul"])
    out["omega.mul.self_ms"] = ms(self_ns["omega.mul"])
    for layer in ("expand", "order_certificate", "coordinate_checks"):
        out[f"counterexample.{layer}.self_ms"] = ms(self_ns[f"counterexample.{layer}"])
    for cid in claim_ids:
        out[f"claims.run_claim.{cid}.ms"] = ms(total_ns[f"claims.run_claim.{cid}"])
    out["claims.default_params.self_ms"] = ms(self_ns["claims.default_params"])
    out["cli.schema_validate.calls"] = count(calls["cli.schema_validate"])
    out["cli.schema_validate.self_ms"] = ms(self_ns["cli.schema_validate"])
    return out
