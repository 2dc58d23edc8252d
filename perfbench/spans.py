"""Span tracing of localzeta's layers from outside the package.

Each traced function is replaced by a wrapper wherever its callers look
the name up: on its class for methods, and in the globals of every loaded
``localzeta`` module that holds the function for module-level names (``zeta``
and ``bessel`` import ``series_div`` and ``bessel_coeffs`` by name, ``arch``
imports ``quad_zero_to_inf`` and ``_nodes``).  Spans record name, start, end,
parent span and check id; they stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from time import perf_counter

# (span name, module, qualified name, what the span counts beyond calls)
TARGETS = [
    ("cli", "cli", "main", None),
    # one sweep instance: the same layer as cli.main, and a new check id
    ("cli", "cli", "_run_sweep_instance", "check"),
    ("zeta.verify_local", "zeta", "verify_local", None),
    ("zeta.zeta_series_lhs", "zeta", "zeta_series_lhs", None),
    ("zeta.hq_substituted", "zeta", "hq_substituted", None),
    ("zeta.zeta_closed_rhs", "zeta", "zeta_closed_rhs", None),
    ("zeta.random_local_instance", "zeta", "random_local_instance", None),
    ("zeta.LocalInstance.from_json", "zeta", "LocalInstance.from_json", None),
    ("bessel.bessel_coeffs", "bessel", "bessel_coeffs", None),
    ("series.RatFn.to_series", "series", "RatFn.to_series", None),
    ("series.series_div", "series", "series_div", None),
    ("series.series_equal", "series", "series_equal", None),
    ("gl2.newform_value", "gl2", "newform_value", None),
    ("arch.arch_zeta_quadrature", "arch", "arch_zeta_quadrature", None),
    ("arch.arch_zeta_closed", "arch", "arch_zeta_closed", None),
    ("arch.mellin_whittaker_check", "arch", "mellin_whittaker_check", None),
    ("arch.whittaker_w_array", "arch", "whittaker_w_array", "points"),
    ("cgamma.complex_gamma", "cgamma", "complex_gamma", None),
    # the integrand's own time goes to the layer that passed it in
    ("quadrature.quad_zero_to_inf", "quadrature", "quad_zero_to_inf",
     "integrand"),
    ("quadrature.nodes", "quadrature", "_nodes", "nodes"),
    ("cosets.full", "cosets", "_partition_full", None),
    ("cosets.quotient", "cosets", "_partition_quotient", None),
    ("cosets.gsp4_generators", "cosets", "gsp4_generators", None),
    ("kernels.enumerate_invertible_keys", "_kernels",
     "enumerate_invertible_keys", None),
    ("kernels.generator_permutation", "_kernels", "generator_permutation",
     None),
    ("kernels.orbit_labels", "_kernels", "orbit_labels", None),
]

# span fields; CALL is False for an integrand, which is a callback, not a call
NAME, START, END, PARENT, CHECK, COUNT, SELF, CALL = range(8)


def _points(args, kwargs, result) -> int:
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    return int(getattr(xs, "size", 1))


def _nodes(args, kwargs, result) -> int:
    return len(result[0])


_COUNTERS = {"points": _points, "nodes": _nodes}


class Tracer:
    """Collects spans; self time is a span's duration minus its children's."""

    def __init__(self):
        self.spans: list[list] = []
        self.check_id = 0
        self._stack: list[list] = []   # open spans
        self._child: list[float] = []  # time covered by each open span's children
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, extra, call=True):
        counter = _COUNTERS.get(extra)
        new_check = extra == "check"
        integrand = extra == "integrand"
        spans, stack, child = self.spans, self._stack, self._child
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_check:
                tracer.check_id += 1
            parent = stack[-1] if stack else None
            if integrand:
                owner = parent[NAME] if parent is not None else name
                args = (tracer._wrap(owner, args[0], None, call=False),
                        *args[1:])
            span = [name, 0.0, 0.0, parent, tracer.check_id, 0, 0.0, call]
            spans.append(span)
            stack.append(span)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                span[START], span[END], span[SELF] = t0, t1, t1 - t0 - covered
                if child:
                    child[-1] += t1 - t0
            if counter is not None:
                span[COUNT] = counter(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Bind a wrapper for every target.

        Raises LookupError, with nothing bound, if a target is gone: a
        renamed function is followed by a change to TARGETS, never read as
        a layer that costs nothing.
        """
        found, missing = [], []
        for name, module, qualname, extra in TARGETS:
            *owners, attr = qualname.split(".")
            owner = importlib.import_module(f"localzeta.{module}")
            for part in owners:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module}.{qualname}")
            found.append((name, extra, owners, owner, attr, raw))
        if missing:
            raise LookupError(f"trace targets not found: {missing}")
        for name, extra, owners, owner, attr, raw in found:
            if owners:  # a method: callers find it on the class
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = self._wrap(name, fn, extra)
                self._bind(owner, attr, staticmethod(wrapped) if static else wrapped)
                continue
            wrapped = self._wrap(name, raw, extra)
            for modname, m in list(sys.modules.items()):
                if modname.split(".")[0] != "localzeta" or m is None:
                    continue
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._bind(m, key, wrapped)

    def _bind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path, t0: float) -> None:
        """All spans as one JSON document, times in seconds from t0."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7),
                 index[id(s[PARENT])] if s[PARENT] is not None else -1,
                 s[CHECK]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "check"], "spans": rows}, fh)


def count_qscalar_mul(run) -> tuple[int, int]:
    """Run run() counting QScalar multiplications and those by zero.

    A separate pass, because a wrapper on every multiplication would
    distort the self times of the traced pass.
    """
    from localzeta.scalars import QScalar

    counts = [0, 0]

    def is_zero(x) -> bool:
        if isinstance(x, QScalar):
            return x.rat == 0 and x.sqrt == 0
        return x == 0

    def counting(orig):
        def mul(self, other):
            counts[0] += 1
            if is_zero(self) or is_zero(other):
                counts[1] += 1
            return orig(self, other)
        return mul

    saved = {attr: vars(QScalar)[attr] for attr in ("__mul__", "__rmul__")}
    try:
        for attr, orig in saved.items():
            setattr(QScalar, attr, counting(orig))
        run()
    finally:
        for attr, orig in saved.items():
            setattr(QScalar, attr, orig)
    return counts[0], counts[1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest listed percentile that has at
    least ten samples beyond it; (0, 0) with fewer than twenty samples."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[max(math.ceil(pct / 100 * n) - 1, 0)]
    return 0.0, 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans, keyed by metric name.

    A layer that did not run reads 0, so every workload reports every name.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    verify_ms: list[float] = []
    levels = evals = 0
    for s in tracer.spans:
        name = s[NAME]
        calls[name] = calls.get(name, 0) + s[CALL]
        self_s[name] = self_s.get(name, 0.0) + s[SELF]
        if name == "zeta.verify_local":
            verify_ms.append((s[END] - s[START]) * 1e3)
        elif (name == "quadrature.nodes" and s[PARENT] is not None
              and s[PARENT][NAME] == "quadrature.quad_zero_to_inf"):
            # one level of a DE quadrature: the integrand runs on every node
            levels += 1
            evals += s[COUNT]
    points = sum(s[COUNT] for s in tracer.spans
                 if s[NAME] == "arch.whittaker_w_array")
    quads = calls.get("quadrature.quad_zero_to_inf", 0)
    pct, tail_ms = tail(verify_ms)
    out = {
        "zeta.verify_local.p50_ms":
            sorted(verify_ms)[(len(verify_ms) - 1) // 2] if verify_ms else 0.0,
        "zeta.verify_local.tail_ms": tail_ms,
        "zeta.verify_local.tail_pct": pct,
        "quadrature.levels_mean": levels / quads if quads else 0.0,
        "quadrature.evals": evals,
        "arch.whittaker_w_array.points": points,
    }
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out
