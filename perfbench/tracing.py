"""Spans around the package's public functions, installed from outside.

Each wrapped function records one span (name, start, end, parent) while
the tracer is enabled.  A function is wrapped under every module name
that refers to it, so ``backtest.build_family`` and
``partition.build_family`` both record ``partition.build_family``.
``linprog`` is wrapped separately in each module that imports it, so
its calls count against the layer that made them.  Spans stay in
memory; ``layer_metrics`` reduces one job's spans to the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

LAYERS = ("data", "utility", "partition", "ambiguity", "robust_lp",
          "backtest", "oracle", "cli")

# spans, named <defining module>.<function>
TRACED = (
    "data.load_prices", "data.interpolate_missing", "data.compute_returns",
    "data.append_risk_free", "data.build_scenario_set",
    "partition.build_family", "partition.certify_error",
    "partition.removal_experiment",
    "ambiguity.from_gamma",
    "robust_lp.assemble", "robust_lp.solve", "robust_lp.extract_weights",
    "backtest.run", "backtest.solve_rebalance", "backtest.account_step",
    "oracle.verify_duality", "oracle.verify_inner", "oracle.verify_approximation",
    "oracle.concavity_probe", "oracle.survival_probe", "oracle.exact_small_solve",
    "cli.main",
)
LINPROG_CALLERS = ("ambiguity", "robust_lp", "oracle")

DATA_LOAD = ("data.load_prices", "data.interpolate_missing",
             "data.compute_returns", "data.append_risk_free")
MIB = float(1 << 20)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "info": self.info}


def _lp_info(span, args, kwargs, result):
    model = args[0]
    rows, cols = model.A_ub.shape
    span.info = {"rows": int(rows), "cols": int(cols),
                 "nnz": int(model.A_ub.nnz), "iterations": int(result.iterations)}


def _family_info(span, args, kwargs, result):
    span.info = {"L": int(result.a.size), "R": int(result.b.size)}


def _certify_info(span, args, kwargs, result):
    fam = args[1]
    grid = kwargs.get("grid", args[2] if len(args) > 2 else 1000)
    span.info = {"cells": int(fam.a.size) * int(fam.b.size) * int(grid) ** 2}


INFO = {
    "robust_lp.solve": _lp_info,
    "partition.build_family": _family_info,
    "partition.certify_error": _certify_info,
}


class Tracer:
    """Wraps the package's functions; records spans only while enabled."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self._undo = []

    def _wrap(self, fn, name, info=None, track_memory=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if track_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span.info = {"peak_mb": peak / MIB}
            if info is not None:
                info(span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every package-module reference to a traced function."""
        pkg = importlib.import_module("dro_portfolio")
        modules = [pkg] + [importlib.import_module(f"dro_portfolio.{m}")
                           for m in LAYERS]
        for name in TRACED:
            layer, attr = name.split(".")
            fn = getattr(importlib.import_module(f"dro_portfolio.{layer}"), attr)
            wrapper = self._wrap(fn, name, INFO.get(name),
                                 track_memory=name == "robust_lp.assemble")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for layer in LINPROG_CALLERS:
            mod = importlib.import_module(f"dro_portfolio.{layer}")
            self._undo.append((mod, "linprog", mod.linprog))
            mod.linprog = self._wrap(mod.linprog, f"{layer}.linprog")

    def uninstall(self):
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def take(self) -> list:
        """The spans recorded since the last call, removed from the tracer."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one job's spans (values in metric units)."""
    own = self_times(spans)
    total, count, self_by_name = {}, {}, {}
    for s, o in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        count[s.name] = count.get(s.name, 0) + 1
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + o

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return count.get(name, 0)

    lps = [s.info for s in spans if s.name == "robust_lp.solve"]
    fams = [s.info for s in spans if s.name == "partition.build_family"]
    certs = [s.info for s in spans if s.name == "partition.certify_error"]
    assembles = [s.info for s in spans if s.name == "robust_lp.assemble"]
    linprog_calls = sum(c(f"{layer}.linprog") for layer in LINPROG_CALLERS)
    rebalances = c("backtest.solve_rebalance")

    m = {
        "data.load_s": sum(self_by_name.get(n, 0.0) for n in DATA_LOAD),
        "data.window_s": t("data.build_scenario_set"),
        "data.windows": c("data.build_scenario_set"),
        "partition.family_s": t("partition.build_family"),
        "partition.families": c("partition.build_family"),
        # the first family of a job: the certified one in certify
        "partition.L": fams[0]["L"] if fams else 0,
        "partition.R": fams[0]["R"] if fams else 0,
        "partition.certify_s": t("partition.certify_error"),
        "partition.certify_cells": sum(ci["cells"] for ci in certs),
        "partition.removal_s": t("partition.removal_experiment"),
        "ambiguity.from_gamma_s": t("ambiguity.from_gamma"),
        "ambiguity.linprog_calls": c("ambiguity.linprog"),
        "robust_lp.assemble_s": t("robust_lp.assemble"),
        "robust_lp.assemble_peak_mb": max((a["peak_mb"] for a in assembles),
                                          default=0.0),
        "robust_lp.dense_mb": max((lp["rows"] * lp["cols"] * 8 / MIB for lp in lps),
                                  default=0.0),
        "robust_lp.solve_s": t("robust_lp.solve"),
        "robust_lp.linprog_calls": c("robust_lp.linprog"),
        "robust_lp.extract_s": t("robust_lp.extract_weights"),
        "backtest.rebalances": rebalances,
        "backtest.linprog_per_rebalance": (linprog_calls / rebalances
                                           if rebalances else 0.0),
        "backtest.account_step_s": t("backtest.account_step"),
        "backtest.account_steps": c("backtest.account_step"),
        "oracle.duality_s": t("oracle.verify_duality"),
        "oracle.inner_s": t("oracle.verify_inner"),
        "oracle.approximation_s": t("oracle.verify_approximation"),
        "oracle.concavity_s": t("oracle.concavity_probe"),
        "oracle.survivability_s": t("oracle.survival_probe"),
        "oracle.exact_small_solve_s": t("oracle.exact_small_solve"),
        "oracle.linprog_calls": c("oracle.linprog"),
    }
    for key in ("rows", "cols", "nnz", "iterations"):
        m[f"robust_lp.{key}"] = max((lp[key] for lp in lps), default=0)
        m[f"robust_lp.{key}_sum"] = sum(lp[key] for lp in lps)
    for layer in LAYERS:
        if layer == "utility":
            continue  # no span: phi/phi_prime time counts in its callers
        m[f"{layer}.self_s"] = sum((o for s, o in zip(spans, own)
                                    if s.name.split(".")[0] == layer), 0.0)
    m["trace.spans"] = len(spans)
    return m
