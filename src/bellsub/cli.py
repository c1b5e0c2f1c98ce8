"""Command-line entry point.

Commands: certify, tau-sweep, simulate, sharpness, truncate, telescope.
Every randomized command requires --seed and is a deterministic function of
its flags (including --jobs, which only distributes work).  The sampling
plan of certify and tau-sweep holds only --samples and --seed; the domain it
samples is the one --Q, --eps, --ell and --dim set.  sharpness and truncate
draw nothing and take no --seed.  Exit codes:
0 all checks pass / output written, 1 a verified property failed,
2 bad flags (values past float64 or the memory included) or malformed
input files, each reported on one stderr line.  Reports go to --out
(default stdout); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import certify as cert
from . import estimates, martingales, sharpness, weights
from .bellman import BellmanConfig
from .errors import DomainError, InvalidInputError, ConfigError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # each argparse error is `main`'s one line
        raise ConfigError(f"{self.prog}: {message}")


def _add_cfg(sp):
    sp.add_argument("--Q", type=float, default=BellmanConfig.Q)
    sp.add_argument("--eps", type=float, default=BellmanConfig.eps)
    sp.add_argument("--ell", type=float, default=BellmanConfig.ell)
    sp.add_argument("--dim", type=int, default=BellmanConfig.dim)


def _cfg(args):
    """The BellmanConfig of the flags `_add_cfg` adds."""
    return BellmanConfig(Q=args.Q, eps=args.eps, ell=args.ell, dim=args.dim)


def build_parser():
    p = _Parser(prog="bellsub", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="run the full certification suite")
    _add_cfg(c)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", default=None)
    c.add_argument("--format", choices=("csv", "structured-text"),
                   default="structured-text")
    c.add_argument("--jobs", type=int, default=1)

    t = sub.add_parser("tau-sweep", help="per-sample ellipse constants as CSV")
    _add_cfg(t)
    t.add_argument("--samples", type=int, required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", default=None)

    s = sub.add_parser("simulate", help="bilinear + main estimate on random instances")
    s.add_argument("--depth", type=int, default=10)
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--delta", type=float, default=-0.5)
    s.add_argument("--num", type=int, default=100)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--C-target", type=float, default=10.0, dest="c_target")
    s.add_argument("--out", default=None)

    h = sub.add_parser("sharpness", help="adversarial multiplier growth table")
    h.add_argument("--delta-grid", required=True,
                   help="start:stop:count (inclusive linspace) or comma list")
    h.add_argument("--depth", type=int, default=12)
    h.add_argument("--out", default=None)

    r = sub.add_parser("truncate", help="two-sided weight truncation with Q2 report")
    r.add_argument("--weight-file", required=True)
    r.add_argument("--a", type=float, required=True)
    r.add_argument("--one-sided", action="store_true",
                   help="truncate from above only")
    r.add_argument("--out", default=None)

    e = sub.add_parser("telescope", help="pathwise dissipation verification")
    _add_cfg(e)
    e.add_argument("--depth", type=int, default=8)
    e.add_argument("--delta", type=float, default=-0.5)
    e.add_argument("--num", type=int, default=20)
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--anchor-mult", type=float, default=1.0)
    e.add_argument("--out", default=None)
    return p


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _check_seed(args):
    # numpy seeds only from nonnegative integers
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def cmd_certify(args):
    _check_seed(args)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _cfg(args)
    spec = cert.SampleSpec(count=args.samples, seed=args.seed)
    rep = cert.run_certification(cfg, spec, jobs=args.jobs)
    text = cert.report_to_csv(rep) if args.format == "csv" else cert.report_to_text(rep)
    _emit(text, args.out)
    print(f"certification runtime {rep.runtime:.2f}s", file=sys.stderr)
    return EXIT_OK if rep.overall_pass else EXIT_FAIL


def cmd_tau_sweep(args):
    _check_seed(args)
    cfg = _cfg(args)
    spec = cert.SampleSpec(count=args.samples, seed=args.seed)
    rows, ok = cert.tau_sweep(cfg, spec)
    lines = ["sample,r,s,x_norm,y_norm,tau"]
    lines += [f"{i},{r!r},{s!r},{a!r},{b!r},{tau!r}" for i, r, s, a, b, tau in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_FAIL


def _check_num(args):
    if args.num < 0:
        raise ConfigError(f"--num must be >= 0, got {args.num}")


def cmd_simulate(args):
    _check_num(args)
    _check_seed(args)
    scfg = martingales.SimConfig(depth=args.depth, dim=args.dim)
    w = weights.power_weight_family(args.delta, args.depth)
    rng = np.random.default_rng(args.seed)
    lines = ["instance,bilinear_ratio,main_ratio,pass"]
    all_ok = True
    for i in range(args.num):
        X = martingales.random_martingale(scfg, rng)
        Y = martingales.rotation_transform(X, rng) if i % 2 else martingales.transform(
            X, [np.where(rng.standard_normal(2 ** k) >= 0, 1.0, -1.0)
                for k in range(args.depth)], sigma0=1.0)
        Z = martingales.random_martingale(scfg, rng)
        bil = estimates.verify_bilinear_estimate(X, Y, Z, w, args.c_target)
        main = estimates.verify_main_theorem(X, Y, w, args.c_target)
        ok = bil["pass"] and main["pass"]
        all_ok &= ok
        lines.append(f"{i},{bil['ratio']!r},{main['ratio']!r},{str(ok).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_FAIL


def _parse_delta_grid(text):
    try:
        if "," in text:
            return [float(v) for v in text.split(",")]
        start, stop, count = text.split(":")
        return list(np.linspace(float(start), float(stop), int(count)))
    except ValueError as exc:
        raise ConfigError("delta grid must be start:stop:count or a comma list, "
                          f"got {text!r} ({exc})") from None


def cmd_sharpness(args):
    grid = _parse_delta_grid(args.delta_grid)
    rows, slope = sharpness.sharpness_experiment(grid, args.depth)
    _emit(sharpness.rows_to_csv(rows, slope), args.out)
    return EXIT_OK


def cmd_truncate(args):
    w = weights.load(args.weight_file)
    before = weights.a2_characteristic(w)
    wt = (weights.truncate_above(w, args.a) if args.one_sided
          else weights.truncate_two_sided(w, args.a))
    after = weights.a2_characteristic(wt)
    if args.out:
        weights.save(wt, args.out)
    sys.stdout.write(f"Q2_before {before!r}\nQ2_after {after!r}\n")
    return EXIT_OK if after <= before * (1 + 1e-12) else EXIT_FAIL


def cmd_telescope(args):
    _check_num(args)
    _check_seed(args)
    cfg = _cfg(args)
    scfg = martingales.SimConfig(depth=args.depth, dim=args.dim)
    raw = weights.power_weight_family(args.delta, args.depth)
    w = weights.truncate_two_sided(raw, 1.0 / cfg.eps)
    rng = np.random.default_rng(args.seed)
    lines = ["instance,min_margin,sum_increments,bellman_bound,pass"]
    all_ok = True
    for i in range(args.num):
        X = martingales.random_martingale(scfg, rng)
        Z = (martingales.rotation_transform(X, rng) if i % 2
             else martingales.random_martingale(scfg, rng))
        res = estimates.bellman_telescope(X, Z, w, cfg,
                                          anchor=cfg.ell * args.anchor_mult)
        all_ok &= res["pass"]
        lines.append(f"{i},{res['min_margin']!r},{res['sum_increments']!r},"
                     f"{res['bellman_bound']!r},{str(res['pass']).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_FAIL


COMMANDS = {
    "certify": cmd_certify,
    "tau-sweep": cmd_tau_sweep,
    "simulate": cmd_simulate,
    "sharpness": cmd_sharpness,
    "truncate": cmd_truncate,
    "telescope": cmd_telescope,
}


def main(argv=None):
    parser = build_parser()
    # argparse mistakes "-0.8:-0.5:3" for an option; glue the grid to its flag
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--delta-grid":
            argv[i:i + 2] = [f"--delta-grid={argv[i + 1]}"]
            break
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit:      # --help; argparse's errors raise ConfigError
        return EXIT_OK
    # OSError: --out or --weight-file names a path that cannot be written or
    # read; MemoryError: numpy refuses an array past the memory (a huge
    # --dim) before allocating it
    except (DomainError, InvalidInputError, ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
