"""Span recording around the calls into bellsub's layers.

Tracing lives entirely in the benchmark: `Recorder.install` replaces the
module attributes that callers look up (for example `bellsub.certify.
evaluate_batch`, which `run_certification` calls through its own module
globals) with timing wrappers, and `Recorder.remove` puts the originals back.
Nothing under `src/` knows about it.

A span is (name, start, end, parent, counts, raised).  The parent is the innermost
span open in the same thread; a worker thread of `run_certification --jobs 2`
has no open span of its own, so its spans hang under the innermost span open
in the main thread.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import resource
import threading
from collections import defaultdict
from time import perf_counter


def _current_rss_mb():
    """Resident set size now, from /proc/self/statm (Linux); 0 elsewhere."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * resource.getpagesize() / 2 ** 20


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mollify_counts(result, before):
    # ru_maxrss only grows, so after the first grid this is an upper bound
    # on the call's own growth: peak so far minus what was resident before.
    return {"nodes": int(result.values.size),
            "rss_growth_mb": _peak_rss_mb() - before}


def _points(result, before):
    return {"points": int(result.value.size)}


def _cert_counts(result, before):
    hess = next(c for c in result.checks if c.name == "hessian_lower")
    return {"samples": result.spec.count, "skipped": hess.skipped}


def _rounds(result, before):
    return {"calls": 1, "rounds_used": result[1]["rounds_used"]}


# (module whose attribute the callers use, attribute, span name, before, counts)
TARGETS = [
    ("bellsub.certify", "evaluate_batch", "bellman.evaluate_batch", None, _points),
    ("bellsub.estimates", "evaluate_batch", "bellman.evaluate_batch", None, _points),
    ("bellsub.mollify", "evaluate_batch", "bellman.evaluate_batch", None, _points),
    ("bellsub.certify", "hessian_quadratic_form", "bellman.hessian_quadratic_form",
     None, None),
    ("bellsub.certify", "partial_xx_form", "bellman.partial_xx_form", None, None),
    ("bellsub.certify", "partial_yy_form", "bellman.partial_yy_form", None, None),
    # certify imports profile_value from bellsub.bellman at call time
    ("bellsub.bellman", "profile_value", "bellman.profile_value", None, None),
    ("bellsub.estimates", "profile_value", "bellman.profile_value", None, None),
    ("bellsub.certify", "b4_batch", "bellman.b4_batch", None, None),
    ("bellsub.mollify", "b4_batch", "bellman.b4_batch", None, None),
    ("bellsub.certify", "run_certification", "certify.run_certification",
     None, _cert_counts),
    ("bellsub.certify", "check_c1_across_cuts", "certify.check_c1_across_cuts",
     None, None),
    ("bellsub.certify", "validate_coefficients",
     "coefficients.validate_coefficients", None, None),
    ("bellsub.mollify", "mollify_h4", "mollify.mollify_h4",
     _current_rss_mb, _mollify_counts),
    ("bellsub.mollify", "composite_one_leg_margins",
     "mollify.composite_one_leg_margins", None, None),
    ("bellsub.martingales", "rotation_transform", "martingales.rotation_transform",
     None, None),
    ("bellsub.martingales", "transform", "martingales.transform", None, None),
    ("bellsub.martingales", "random_martingale", "martingales.random_martingale",
     None, None),
    ("bellsub.estimates", "check_subordination", "martingales.check_subordination",
     None, None),
    ("bellsub.estimates", "weighted_norm", "martingales.weighted_norm", None, None),
    ("bellsub.estimates", "bilinear_form", "martingales.bilinear_form", None, None),
    ("bellsub.estimates", "bellman_telescope", "estimates.bellman_telescope",
     None, None),
    ("bellsub.estimates", "verify_bilinear_estimate",
     "estimates.verify_bilinear_estimate", None, None),
    ("bellsub.estimates", "verify_main_theorem", "estimates.verify_main_theorem",
     None, None),
    ("bellsub.weights", "power_weight_family", "weights.power_weight_family",
     None, None),
    ("bellsub.sharpness", "power_weight_family", "weights.power_weight_family",
     None, None),
    ("bellsub.weights", "truncate_two_sided", "weights.truncate_two_sided",
     None, None),
    ("bellsub.estimates", "a2_characteristic", "weights.a2_characteristic",
     None, None),
    ("bellsub.sharpness", "a2_characteristic", "weights.a2_characteristic",
     None, None),
    ("bellsub.sharpness", "worst_ratio", "sharpness.worst_ratio", None, _rounds),
    ("bellsub.cli", "main", "cli.main", None, None),
]

# per-layer metric name -> (span name, statistic, unit)
LAYER_METRICS = {
    "bellman.evaluate_batch.busy_s": ("bellman.evaluate_batch", "busy", "s"),
    "bellman.evaluate_batch.points": ("bellman.evaluate_batch", "points", "count"),
    "bellman.evaluate_batch.us_per_point": ("bellman.evaluate_batch", "us_per_point", "us"),
    "bellman.hessian_quadratic_form.busy_s": ("bellman.hessian_quadratic_form", "busy", "s"),
    "bellman.partial_xx_form.busy_s": ("bellman.partial_xx_form", "busy", "s"),
    "bellman.partial_yy_form.busy_s": ("bellman.partial_yy_form", "busy", "s"),
    "bellman.profile_value.busy_s": ("bellman.profile_value", "busy", "s"),
    "bellman.b4_batch.busy_s": ("bellman.b4_batch", "busy", "s"),
    "certify.run_certification.self_s": ("certify.run_certification", "self", "s"),
    "certify.run_certification.samples": ("certify.run_certification", "samples", "count"),
    "certify.run_certification.skipped": ("certify.run_certification", "skipped", "count"),
    "certify.check_c1_across_cuts.self_s": ("certify.check_c1_across_cuts", "self", "s"),
    "coefficients.validate_coefficients.busy_s": ("coefficients.validate_coefficients", "busy", "s"),
    "mollify.mollify_h4.busy_s": ("mollify.mollify_h4", "busy", "s"),
    "mollify.mollify_h4.nodes": ("mollify.mollify_h4", "nodes", "count"),
    "mollify.mollify_h4.failed": ("mollify.mollify_h4", "failed", "count"),
    "mollify.mollify_h4.rss_growth_mb": ("mollify.mollify_h4", "rss_growth_mb", "MB"),
    "mollify.composite_one_leg_margins.busy_s": ("mollify.composite_one_leg_margins", "busy", "s"),
    "martingales.rotation_transform.busy_s": ("martingales.rotation_transform", "busy", "s"),
    "martingales.transform.busy_s": ("martingales.transform", "busy", "s"),
    "martingales.random_martingale.busy_s": ("martingales.random_martingale", "busy", "s"),
    "martingales.check_subordination.busy_s": ("martingales.check_subordination", "busy", "s"),
    "martingales.weighted_norm.busy_s": ("martingales.weighted_norm", "busy", "s"),
    "martingales.bilinear_form.busy_s": ("martingales.bilinear_form", "busy", "s"),
    "estimates.bellman_telescope.self_s": ("estimates.bellman_telescope", "self", "s"),
    "estimates.verify_main_theorem.self_s": ("estimates.verify_main_theorem", "self", "s"),
    "estimates.verify_bilinear_estimate.self_s": ("estimates.verify_bilinear_estimate", "self", "s"),
    "weights.power_weight_family.busy_s": ("weights.power_weight_family", "busy", "s"),
    "weights.truncate_two_sided.busy_s": ("weights.truncate_two_sided", "busy", "s"),
    "weights.a2_characteristic.busy_s": ("weights.a2_characteristic", "busy", "s"),
    "sharpness.worst_ratio.busy_s": ("sharpness.worst_ratio", "busy", "s"),
    "sharpness.worst_ratio.calls": ("sharpness.worst_ratio", "calls", "count"),
    "sharpness.worst_ratio.rounds_used": ("sharpness.worst_ratio", "rounds_used", "count"),
    "cli.main.self_s": ("cli.main", "self", "s"),
}


class Recorder:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, counts, raised]
        self._lock = threading.Lock()
        self._stacks = {}     # thread ident -> list of open span ids
        self._main = threading.main_thread().ident
        self._patches = []

    def _stack(self):
        ident = threading.get_ident()
        with self._lock:
            return self._stacks.setdefault(ident, [])

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _wrap(self, orig, name, before, counts):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            snap = before() if before else None
            with self._lock:
                sid = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self._parent(stack), None, False])
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.spans[sid][5] = True
                raise
            finally:
                self.spans[sid][1:3] = [t0, perf_counter()]
                stack.pop()
            if counts:
                self.spans[sid][4] = counts(result, snap)
            return result
        return wrapper

    def install(self):
        for modname, attr, name, before, counts in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(orig, name, before, counts))
            self._patches.append((mod, attr, orig))

    def remove(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def layer_totals(self):
        """Per span name: busy (inclusive) seconds, self seconds, calls that
        raised, and the summed counts."""
        children = defaultdict(list)
        for sid, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(sid)
        totals = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, _, counts, failed) in enumerate(self.spans):
            t = totals[name]
            t["busy"] += end - start
            t["self"] += end - start - _covered(
                start, end, [self.spans[c][1:3] for c in children[sid]])
            t["failed"] += failed
            for key, value in (counts or {}).items():
                t[key] += value
        return totals

    def layer_metrics(self, passes):
        """Every metric of LAYER_METRICS, per traced pass; 0 for a layer the
        workload never calls."""
        totals = self.layer_totals()
        out = {}
        for metric, (span, stat, unit) in LAYER_METRICS.items():
            t = totals.get(span, {})
            if stat == "us_per_point":
                value = 1e6 * t["busy"] / t["points"] if t and t["points"] else 0.0
            elif stat == "rss_growth_mb":
                value = max((s[4] or {}).get("rss_growth_mb", 0.0)
                            for s in self.spans if s[0] == span) if t else 0.0
            else:
                value = t.get(stat, 0.0) / passes
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "counts": c,
                 "failed": f} for n, s, e, p, c, f in self.spans]


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
