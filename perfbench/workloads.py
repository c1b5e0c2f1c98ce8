"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop in one process: `run_pass` issues its
operations one after another and each waits for the previous one.  A pass is
a fixed sequence of operations; its inputs depend only on (seed, pass index),
so the same seed gives the same inputs.  Every operation goes through `Tally`,
which counts it as failed when it raises or returns the wrong verdict; no
operation is ever dropped.

certify    `bellsub certify` through `cli.main` for Q in {2, 16, 256} at
           jobs=1 and jobs=2, plus `check_c1_across_cuts` and the 5-D
           mollification on `default_grid_spec(cfg)`.  The headline command;
           the only workload that runs threads and the 5-D grid.  Never calls
           `martingales` or `sharpness`.
dyadic     depth-16 dyadic instances over power weights: telescope, bilinear
           and main estimate.  Dominated by `bellman.evaluate_batch` on large
           levels and by `martingales.rotation_transform`; bypasses the tau
           and direction code of `certify`.
sharpness  `sharpness_experiment` at depth 14 on the criterion-8 targets.
           Uses only `weights`, ARPACK and sign ascent, never `bellman`: the
           control on which a `bellman` or `certify` change predicts no change.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from bellsub import cli, bellman
from bellsub import certify as ct
from bellsub import estimates as est
from bellsub import martingales as mg
from bellsub import mollify as mo
from bellsub import sharpness as sh
from bellsub import weights as wt
from bellsub.errors import ConfigError

EPS, ELL, DIM = 0.1, 0.05, 2
CERTIFY_QS = (2.0, 16.0, 256.0)
C_TARGET = 10.0
MOLLIFY_MARGIN_TOL = 1e-6          # acceptance criterion 7's floor
SHARPNESS_TARGETS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)   # criterion 8
# At Q = 256 default_grid_spec clamps the K axis at 0 before the kernel
# padding, and mollify_h4 rejects the box.  The failure stays counted; only
# this exact error is tolerated by the correctness verdict.
KNOWN_MOLLIFY_DEFECT = "padded grid must keep K nonnegative"


@dataclass(frozen=True)
class Sizes:
    certify_samples: int = 4096    # two 2048-point certification batches
    grid_cells: int = 8            # default_grid_spec default
    dyadic_depth: int = 16
    sharpness_depth: int = 14


FULL = Sizes()
# self-check and warm-up size: every code path, a fraction of a second
SMOKE = Sizes(certify_samples=256, grid_cells=2, dyadic_depth=6, sharpness_depth=6)


def pass_seed(seed, p, i=0):
    """Integer seed for operation i of pass p under the workload seed."""
    return int(np.random.SeedSequence([seed, p, i]).generate_state(1)[0])


def upper_quartile(times):
    """Time within which three quarters of the ops finished.

    On a shared host the same op ran up to 1.4x faster for tens of seconds
    at a time, while other tenants idled, and a run's median followed those
    spells.  They only shorten ops, so the upper quartile stays at the
    host's usual speed unless a spell covers three quarters of the run.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


class Tally:
    """Operation outcomes, and the time and work units of each successful one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []          # (kind, detail, known defect?)
        self.seconds = {}           # kind -> seconds of every op, failed ones too
        self.done = {}              # kind -> [(seconds, units)] of successful ops

    def run(self, kind, op, known=None):
        """op() returns (ok, units, detail); an exception is a failure too."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            ok, units, detail = op()
            is_known = False
        except Exception as exc:   # a raising operation is a counted failure
            ok, units, detail = False, 0, f"{type(exc).__name__}: {exc}"
            is_known = known is not None and known(exc)
        dt = perf_counter() - t0
        self.seconds.setdefault(kind, []).append(dt)
        if ok:
            self.done.setdefault(kind, []).append((dt, units))
        else:
            self.failures.append((kind, detail, is_known))
        return ok

    def rate(self, *kinds):
        """Units per second of one op of each kind, from per-kind upper
        quartiles of the op time (see `upper_quartile`).  Kinds without a
        successful op are left out.
        """
        ops = [self.done[k] for k in kinds if k in self.done]
        seconds = sum(upper_quartile([t for t, _ in o]) for o in ops)
        return sum(statistics.median(u for _, u in o) for o in ops) / seconds if ops else 0.0

    def pass_seconds(self, passes):
        """Time of one pass: for each op kind, the upper quartile of its
        time times how often a pass runs it."""
        return sum(len(t) / passes * upper_quartile(t) for t in self.seconds.values())

    @property
    def correct(self):
        return all(known for _, _, known in self.failures)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cli_certify(q, samples, seed, jobs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["certify", "--Q", repr(q), "--eps", repr(EPS),
                         "--ell", repr(ELL), "--dim", str(DIM),
                         "--samples", str(samples), "--seed", str(seed),
                         "--jobs", str(jobs)])
    return code, out.getvalue()


def _known_mollify_defect(exc):
    return isinstance(exc, ConfigError) and KNOWN_MOLLIFY_DEFECT in str(exc)


class Certify:
    name = "certify"
    headline = tuple(f"jobs1_Q{q:g}" for q in CERTIFY_QS)

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.cfgs = [bellman.BellmanConfig(Q=q, eps=EPS, ell=ELL, dim=DIM)
                     for q in CERTIFY_QS]
        self.c1_verdicts = []

    def run_pass(self, p, tally):
        n = self.sizes.certify_samples
        for qi, cfg in enumerate(self.cfgs):
            seed = pass_seed(self.seed, p, qi)
            reports = {}

            def certify(jobs):
                code, text = _cli_certify(cfg.Q, n, seed, jobs)
                reports[jobs] = text
                passed = code == 0 and text.endswith("overall_pass true\n")
                same = text == reports[1]
                return (passed and same, n, f"Q={cfg.Q:g} jobs={jobs} exit {code}"
                        + ("" if same else ", report differs from jobs=1"))

            tally.run(f"jobs1_Q{cfg.Q:g}", lambda: certify(1))
            tally.run(f"jobs2_Q{cfg.Q:g}", lambda: certify(2))

            def c1():
                # The verdict (fitted decay rate >= 0.9 on 1000 random points)
                # is a noisy estimate: about 1 seed in 60 misses it although
                # the gradients do merge.  It is counted and printed, not
                # gated; a non-finite rate is a failure.
                rep = ct.check_c1_across_cuts(cfg, seed=seed)
                self.c1_verdicts.append(rep["pass"])
                rates = list(rep["rates"].values())
                return (all(map(math.isfinite, rates)), 1,
                        f"Q={cfg.Q:g} rates {rep['rates']}")

            tally.run(f"c1_Q{cfg.Q:g}", c1)

            def mollify():
                spec = mo.default_grid_spec(cfg, cells=self.sizes.grid_cells)
                moll = mo.mollify_h4(cfg.ell, spec)
                margins = mo.composite_one_leg_margins(moll, cfg, seed=seed)
                low = float(margins.min())
                return (low >= -MOLLIFY_MARGIN_TOL, moll.values.size,
                        f"Q={cfg.Q:g} min margin {low!r}")

            tally.run(f"mollify_Q{cfg.Q:g}", mollify, known=_known_mollify_defect)

    def named_metrics(self, tally):
        return {
            "certify_samples_per_s": (tally.rate(*self.headline), "samples/s"),
            "certify_jobs2_samples_per_s": (
                tally.rate(*(f"jobs2_Q{q:g}" for q in CERTIFY_QS)), "samples/s"),
            "mollify_nodes_per_s": (tally.rate(*(f"mollify_Q{q:g}" for q in CERTIFY_QS)),
                                    "nodes/s"),
            "c1_pass_share": (np.mean(self.c1_verdicts), "1"),
        }


# ---------------------------------------------------------------------------
# dyadic
# ---------------------------------------------------------------------------

class Dyadic:
    name = "dyadic"
    headline = ("instance_sign", "instance_rotation")

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.cfg = bellman.BellmanConfig(Q=16.0, eps=EPS, ell=ELL, dim=DIM)

    def run_pass(self, p, tally):
        depth = self.sizes.dyadic_depth
        # like `simulate` and `telescope`: Y alternates between a sign
        # multiplier and a rotation transform
        for i, kind in enumerate(self.headline):
            rng = np.random.default_rng(pass_seed(self.seed, p, i))
            delta = float(rng.uniform(-0.9, -0.1))

            def instance():
                w = wt.power_weight_family(delta, depth)
                w_trunc = wt.truncate_two_sided(w, 1.0 / self.cfg.eps)
                scfg = mg.SimConfig(depth=depth, dim=DIM)
                X = mg.random_martingale(scfg, rng)
                if kind == "instance_rotation":
                    Y = mg.rotation_transform(X, rng)
                else:
                    Y = mg.transform(X, [np.where(rng.standard_normal(2 ** k) >= 0,
                                                  1.0, -1.0) for k in range(depth)],
                                     sigma0=1.0)
                Z = mg.random_martingale(scfg, rng)
                tel = est.bellman_telescope(X, Z, w_trunc, self.cfg)
                bil = est.verify_bilinear_estimate(X, Y, Z, w, C_TARGET)
                main = est.verify_main_theorem(X, Y, w, C_TARGET,
                                               seed=pass_seed(self.seed, p, i))
                ok = tel["pass"] and bil["pass"] and main["pass"]
                return ok, 1, (f"delta={delta!r} telescope {tel['pass']} "
                               f"bilinear {bil['pass']} main {main['pass']}")

            tally.run(kind, instance)

    def named_metrics(self, tally):
        return {"dyadic_instances_per_s": (tally.rate(*self.headline), "instances/s")}


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------

class Sharpness:
    name = "sharpness"
    headline = ("experiment",)

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.deltas = [wt.delta_for_characteristic(q) for q in SHARPNESS_TARGETS]
        self.slopes = []

    def run_pass(self, p, tally):
        def experiment():
            rows, slope = sh.sharpness_experiment(
                self.deltas, self.sizes.sharpness_depth, seed=pass_seed(self.seed, p))
            # the criterion-8 slope is reported, not scored
            self.slopes.append(slope)
            bad = [r for r in rows
                   if not (math.isfinite(r["worst_ratio"]) and r["worst_ratio"] >= 1.0)]
            return (len(rows) == len(self.deltas) and not bad, len(rows),
                    f"ratios below 1 or not finite: {bad}")

        tally.run("experiment", experiment)

    def named_metrics(self, tally):
        slope = float(np.median(self.slopes)) if self.slopes else float("nan")
        return {"sharpness_weights_per_s": (tally.rate(*self.headline), "weights/s"),
                "sharpness_slope": (slope, "1")}


WORKLOADS = {cls.name: cls for cls in (Certify, Dyadic, Sharpness)}
