"""Tracing gwp1 from outside: wraps the public functions and methods of each
module for the traced run only.

Names are imported into other modules (``zmodel.solve_formal_wave``,
``charlier.solve_formal_wave``, the package re-exports), so every binding of a
wrapped object in every ``gwp1`` module is replaced, and restored by
``uninstall``.

``epslaurent`` and ``zseries`` are called on the order of 10^5 times per job;
their calls are aggregated as counts and self time per parent layer.  The
coarser layers also record one span each (job id, name, start, end, parent
span).  A frame's self time is its span time minus the time of its child
frames.
"""

from __future__ import annotations

import inspect
import sys
import time

# layer -> (module, [class.]attribute names).  A name missing from the code is
# skipped, so the tracer keeps working when a later change removes one.
TARGETS = {
    "epslaurent": ("gwp1.epslaurent", [
        "EpsLaurent.__mul__", "EpsLaurent.__add__", "EpsLaurent.__sub__",
        "EpsLaurent.__neg__", "EpsLaurent.div_exact", "EpsLaurent.__pow__",
    ]),
    "zseries": ("gwp1.zseries", [
        "ZSeries.__mul__", "ZSeries.__add__", "ZSeries.__sub__", "ZSeries.__neg__",
        "ZSeries.shift", "ZSeries.invert", "ZSeries.invert_unit_leading",
        "ZSeries.exp", "ZSeries.scale", "ZSeries.mul_zpow", "ZSeries.truncate",
        "ZSeries.deriv", "ZSeries.eq_on_window", "log1p_inv_z",
    ]),
    "multiseries": ("gwp1.multiseries", [
        "MultiSeries.mul", "MultiSeries.__add__", "MultiSeries.__sub__",
        "MultiSeries.__neg__", "MultiSeries.scale", "MultiSeries.project",
        "MultiSeries.relabel", "MultiSeries.subs_equal",
        "MultiSeries.divide_by_difference", "MultiSeries.truncate_total",
        "MultiSeries.separable", "MultiSeries.inverse_difference",
        "MultiSeries.from_zseries", "MultiSeries.const",
    ]),
    "waves": ("gwp1.waves", [
        "solve_formal_wave", "wave_shift", "normalized_quartet", "step_factor",
        "step_exponent", "wave_residual", "stirling_g_oracle", "r_matrix",
        "s1_series",
    ]),
    "invariants": ("gwp1.invariants", [
        "n_point_invariant", "one_point_invariant", "invariant_by_genus",
        "free_energy",
    ]),
    "zmodel": ("gwp1.zmodel", [
        "zmodel_expansion", "zmodel_entry", "stabilization_check",
        "characteristic_entry", "characteristic_det_check",
    ]),
    "miwa": ("gwp1.miwa", ["symmetric_to_miwa"]),
    "charlier": ("gwp1.charlier", [
        "gamma_real", "bessel_j", "charlier_poly", "charlier_poly_recurrence",
        "charlier_orthogonality_sum", "charlier_orthogonality_check",
        "numeric_f_g", "difference_equation_residual", "numeric_wronskian",
        "asymptotic_match_check", "charlier_scaling_limit_check",
        "char_poly_expectation", "brute_force_expectation",
    ]),
}

# Aggregated as counts and self time per parent layer, with no spans.
AGGREGATED = {"epslaurent", "zseries"}


def _short(attr: str) -> str:
    """Metric name of a function or method: ``EpsLaurent.__mul__`` -> ``mul``."""
    return attr.rsplit(".", 1)[-1].strip("_")


class Tracer:
    """Counts, self times, spans and cache statistics of one process's jobs."""

    def __init__(self):
        self.job_id = None
        self.stats: dict[tuple[str, str], list] = {}  # (key, parent layer) -> [calls, self_s]
        self.spans: list[list] = []
        self.max_terms = 0
        self.terms_out = 0
        self.max_order = 0
        self._stack: list[list] = []  # frames: [layer, child_s, nearest span index]
        self._cached: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the already imported gwp1 modules."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "gwp1" or name.startswith("gwp1."))]
        for layer, (modname, attrs) in TARGETS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr in attrs:
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None or name not in vars(owner):
                    continue
                raw = vars(owner)[name]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                key = f"{layer}.{_short(attr)}"
                if hasattr(fn, "cache_info"):
                    self._cached[key] = fn
                wrapper = self._wrap(key, layer, fn)
                if owner_name:
                    # rebind every alias in the class (__rmul__ = __mul__, ...)
                    for alias, val in list(vars(owner).items()):
                        if val is raw:
                            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                            self._set(owner, alias, new)
                else:
                    for m in mods:
                        for alias, val in list(vars(m).items()):
                            if val is fn:
                                self._set(m, alias, wrapper)
        self.reset_cache_base()

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _set(self, owner, name, new) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def reset_cache_base(self) -> None:
        """Start counting cache hits and misses from the caches' current state."""
        self._cache_base = {
            key: (fn.cache_info().hits, fn.cache_info().misses)
            for key, fn in self._cached.items()
        }

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        stack = self._stack
        stats = self.stats
        perf = time.perf_counter
        spans = None if layer in AGGREGATED else self.spans
        order_pos = _order_position(fn) if layer == "waves" else None
        terms = layer == "multiseries"
        is_mul = key == "multiseries.mul"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent is not None else None
            frame = [layer, 0.0, parent_span]
            if spans is not None:
                frame[2] = len(spans)
                spans.append([tracer.job_id, key, 0.0, 0.0, parent_span])
            if order_pos is not None:
                order = kwargs.get("order", args[order_pos] if len(args) > order_pos else None)
                if isinstance(order, int) and order > tracer.max_order:
                    tracer.max_order = order
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                rec_key = (key, parent[0] if parent is not None else "job")
                rec = stats.get(rec_key)
                if rec is None:
                    rec = stats[rec_key] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[1]
                if spans is not None:
                    span = spans[frame[2]]
                    span[2] = t0
                    span[3] = t0 + dt
            if terms:
                n = len(getattr(result, "c", ()))
                if n > tracer.max_terms:
                    tracer.max_terms = n
                if is_mul:
                    tracer.terms_out += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything recorded so far, as JSON (sent from a job process)."""
        cache = {}
        for key, fn in self._cached.items():
            info = fn.cache_info()
            h0, m0 = self._cache_base.get(key, (0, 0))
            cache[key] = [info.hits - h0, info.misses - m0]
        return {
            "stats": [[k, p, c, s] for (k, p), (c, s) in self.stats.items()],
            "spans": self.spans,
            "cache": cache,
            "max_terms": self.max_terms,
            "terms_out": self.terms_out,
            "max_order": self.max_order,
        }


def merge(snapshots: list[dict]) -> dict:
    """Combine job-process snapshots: sums, maxima, and concatenated spans."""
    stats: dict[tuple[str, str], list] = {}
    cache: dict[str, list[int]] = {}
    spans: list = []
    out = {"max_terms": 0, "terms_out": 0, "max_order": 0}
    for snap in snapshots:
        for k, p, c, s in snap["stats"]:
            rec = stats.setdefault((k, p), [0, 0.0])
            rec[0] += c
            rec[1] += s
        for k, (h, m) in snap["cache"].items():
            rec = cache.setdefault(k, [0, 0])
            rec[0] += h
            rec[1] += m
        spans.extend(snap["spans"])
        out["max_terms"] = max(out["max_terms"], snap["max_terms"])
        out["max_order"] = max(out["max_order"], snap["max_order"])
        out["terms_out"] += snap["terms_out"]
    out.update(stats=stats, cache=cache, spans=spans)
    return out


def _order_position(fn):
    """Position of a parameter named ``order``, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("order") if "order" in params else None
