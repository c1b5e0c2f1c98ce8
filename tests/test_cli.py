import argparse
import ast
import inspect
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bellsub import cli
from bellsub import weights as wt


def run(argv):
    return cli.main(argv)


def test_certify_roundtrip_and_exit_codes(tmp_path):
    out = tmp_path / "rep.txt"
    code = run(["certify", "--Q", "4", "--samples", "400", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("certification-report")
    assert "overall_pass true" in text


def test_certify_rejects_bad_flags(tmp_path):
    assert run(["certify", "--Q", "0.5", "--samples", "10", "--seed", "1",
                "--out", str(tmp_path / "r.txt")]) == 2
    assert run(["certify", "--samples", "10", "--seed", "1", "--bogus"]) == 2
    assert run(["certify", "--samples", "10"]) == 2   # seed mandatory


def test_certify_rejects_non_positive_jobs(tmp_path, capsys):
    for jobs in ("0", "-3"):
        out = tmp_path / f"r{jobs}.txt"
        assert run(["certify", "--Q", "4", "--samples", "10", "--seed", "1",
                    "--jobs", jobs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs" in err
        assert not out.exists()


def test_certify_deterministic_across_jobs(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["certify", "--Q", "4", "--samples", "3000", "--seed", "9",
            "--format", "csv"]
    assert run(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert run(args + ["--out", str(b), "--jobs", "1"]) == 0
    assert run(args + ["--out", str(c), "--jobs", "4"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_certify_runs_on_one_thread_by_default(tmp_path, monkeypatch):
    # --jobs defaults to 1, whatever the core count; 3000 samples are one
    # slice, which runs in the calling thread at any --jobs
    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool built without --jobs")
    monkeypatch.setattr(cli.cert, "ThreadPoolExecutor", no_pool)
    assert run(["certify", "--Q", "4", "--samples", "3000", "--seed", "9",
                "--out", str(tmp_path / "r.txt")]) == 0


def test_unwritable_out_path_exits_2_with_one_line(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.txt")
    for argv in (["certify", "--Q", "4", "--samples", "10", "--seed", "1"],
                 ["tau-sweep", "--Q", "4", "--samples", "10", "--seed", "1"]):
        assert run(argv + ["--out", missing]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and missing in err


def test_tau_sweep(tmp_path):
    out = tmp_path / "tau.csv"
    assert run(["tau-sweep", "--Q", "4", "--samples", "0", "--seed", "2",
                "--out", str(out)]) == 0
    assert out.read_text() == "sample,r,s,x_norm,y_norm,tau\n"
    assert run(["tau-sweep", "--Q", "4", "--samples", "50", "--seed", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 51
    taus = np.array([float(ln.split(",")[5]) for ln in lines[1:]])
    assert (taus >= 0.1 * 0.1 / 4).all() and (taus <= 10 * 4 / 0.1).all()
    # stable order: rerun gives identical bytes
    again = tmp_path / "tau2.csv"
    run(["tau-sweep", "--Q", "4", "--samples", "50", "--seed", "2",
         "--out", str(again)])
    assert again.read_bytes() == out.read_bytes()


def test_truncate_command(tmp_path, capsys):
    rng = np.random.default_rng(3)
    wfile = tmp_path / "w.txt"
    wt.save(wt.WeightTree(np.exp(rng.normal(0, 2, 16))), wfile)
    out = tmp_path / "wt.txt"
    code = run(["truncate", "--weight-file", str(wfile), "--a", "4",
                "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    q2b = float(captured.splitlines()[0].split()[1])
    q2a = float(captured.splitlines()[1].split()[1])
    assert q2b >= q2a
    back = wt.load(out)
    assert (back.leaf_values <= 4.0).all() and (back.leaf_values >= 0.25).all()


def test_truncate_malformed_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("gibberish\n")
    assert run(["truncate", "--weight-file", str(bad), "--a", "2"]) == 2
    assert run(["truncate", "--weight-file", str(tmp_path / "none.txt"),
                "--a", "2"]) == 2


def test_truncate_one_sided_caps_from_above_only(tmp_path, capsys):
    leaves = np.exp(np.random.default_rng(5).normal(0, 2, 16))
    wfile, out = tmp_path / "w.txt", tmp_path / "wt.txt"
    wt.save(wt.WeightTree(leaves), wfile)
    assert run(["truncate", "--weight-file", str(wfile), "--a", "2", "--one-sided",
                "--out", str(out)]) == 0
    before, after = (float(ln.split()[1]) for ln in capsys.readouterr().out.splitlines())
    assert after <= before
    assert np.array_equal(wt.load(out).leaf_values, np.minimum(leaves, 2.0))


@pytest.mark.parametrize("argv", [["--a", "0.5"], ["--a", "nan"], ["--a", "nan", "--one-sided"]],
                         ids=("two-sided-below-one", "nan", "one-sided-nan"))
def test_truncate_rejects_a_bad_level_with_one_line(tmp_path, capsys, argv):
    wfile, out = tmp_path / "w.txt", tmp_path / "wt.txt"
    wt.save(wt.WeightTree([1.0, 3.0]), wfile)
    assert run(["truncate", "--weight-file", str(wfile), "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("content,message", [
    (b"depth 1\n1.0\nabc\n", "malformed weight file: "),
    (b"depth 1\n1.0\n\xff\xfe\n", "not text: "),
], ids=("non-numeric-leaf", "undecodable"))
def test_truncate_unreadable_weight_file_exits_2_with_one_line(tmp_path, capsys,
                                                                content, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    assert run(["truncate", "--weight-file", str(bad), "--a", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("content", [
    b"depth 1\n1.0\n\xff\xfe\n",     # not text
    b"depth 99999999999\n1.0\n2.0\n",  # 2 ** depth would not fit in memory
], ids=("undecodable", "huge-depth"))
def test_truncate_malformed_weight_file_exits_2_promptly(tmp_path, content):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "bellsub", "truncate", "--weight-file",
                           str(bad), "--a", "2"], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "weight file" in proc.stderr


def test_sharpness_command(tmp_path):
    out = tmp_path / "sharp.csv"
    assert run(["sharpness", "--delta-grid", "-0.8:-0.5:3", "--depth", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,depth,Q2,worst_ratio"
    assert len(lines) == 5 and lines[-1].startswith("# slope")


def test_sharpness_refuses_a_seed(capsys):
    # the search draws nothing, so it takes no --seed
    assert run(["sharpness", "--delta-grid", "-0.8:-0.5:3", "--depth", "6",
                "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "--seed" in captured.err


def test_python_dash_m_bellsub_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bellsub", "sharpness", "--delta-grid",
                           "-0.9:-0.1:3", "--depth", "6"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delta,depth,Q2,worst_ratio"
    assert len(lines) == 5 and lines[-1].startswith("# slope ")


def test_sharpness_rejects_an_empty_grid(tmp_path, capsys):
    out = tmp_path / "sharp.csv"
    assert run(["sharpness", "--delta-grid", "-0.5:-0.1:0", "--depth", "4",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "empty" in err
    assert not out.exists()


@pytest.mark.parametrize("grid", [",", "a:b:3", "-0.5:-0.1:-2", "-0.5"])
def test_sharpness_rejects_a_malformed_grid(tmp_path, capsys, grid):
    out = tmp_path / "sharp.csv"
    assert run(["sharpness", "--delta-grid", grid, "--depth", "4",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and grid in err
    assert err.count("start:stop:count") == 1      # the usage, once
    assert not out.exists()


@pytest.mark.parametrize("grid", ["-0.5:-0.1:1", "0,0", "-0.5,-0.5",
                                  "-0.5,-0.5000000000000001", "-0.5,-0.500000000001"])
def test_sharpness_rejects_a_grid_without_a_slope(tmp_path, capsys, grid):
    out = tmp_path / "sharp.csv"
    assert run(["sharpness", "--delta-grid", grid, "--depth", "4",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "slope" in err
    assert not out.exists()


def test_telescope_command(tmp_path):
    out = tmp_path / "tel.csv"
    assert run(["telescope", "--depth", "5", "--Q", "16", "--num", "5",
                "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance,")
    assert all(ln.endswith("true") for ln in lines[1:])


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--depth", "6", "--num", "6", "--seed", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7


@pytest.mark.parametrize("command", ("simulate", "telescope"))
@pytest.mark.parametrize("depth", ("40", "21"))
def test_out_of_range_depth_exits_2_before_building_the_weight(tmp_path, capsys,
                                                               monkeypatch, command, depth):
    # depth 40 cannot be allocated, and depth 21 with --num 0 used to build a
    # 2^21-leaf weight and exit 0: both must stop at the depth check
    def no_weight(*args):
        raise AssertionError("weight built before the depth check")
    monkeypatch.setattr(wt, "power_weight_family", no_weight)
    out = tmp_path / "out.csv"
    assert run([command, "--depth", depth, "--num", "0", "--seed", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "depth" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, word", [
    (["simulate", "--depth", "3", "--num", "-3"], "--num"),
    (["telescope", "--depth", "3", "--num", "-2"], "--num"),
    (["simulate", "--depth", "3", "--delta", "nan"], "delta"),
    (["telescope", "--depth", "3", "--delta", "-1"], "delta"),
    (["telescope", "--depth", "3", "--anchor-mult", "nan"], "anchor"),
    (["telescope", "--depth", "3", "--anchor-mult", "inf"], "anchor"),
    (["simulate", "--depth", "3", "--num", "2", "--delta", "400"], "delta"),
    (["telescope", "--depth", "10", "--delta", "200"], "delta"),
    (["certify", "--samples", "2000", "--ell", "1e-200"], "ell"),
    (["tau-sweep", "--samples", "2000", "--ell", "1e-200"], "ell"),
    (["telescope", "--depth", "1", "--num", "1", "--anchor-mult", "1e200"], "anchor"),
    (["telescope", "--depth", "1", "--num", "1", "--anchor-mult", "2e153"], "anchor"),
    (["telescope", "--depth", "6", "--num", "2", "--anchor-mult", "1.1e153"], "anchor"),
])
def test_bad_instance_flags_exit_2_with_one_line(tmp_path, capsys, argv, word):
    # the --num and --anchor-mult rows used to write a header (and rows reading
    # false or nan, or a bellman_bound of inf passing) and exit 0 or 1, the
    # overflowing anchors after RuntimeWarnings (at depth 6 with a finite size
    # bound, B itself overflowed); --delta is refused before any
    # output too.
    # A power weight past the float range printed six lines of overflow
    # warnings before its error, and an ell whose drawn |x| underflow to 0
    # made certify exit 1 (one_leg nan) and tau-sweep list x_norm 0.0 rows
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and word in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--samples", "10"],
    ["tau-sweep", "--samples", "10"],
    ["simulate", "--depth", "3", "--num", "2"],
    ["telescope", "--depth", "3", "--num", "2"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2_with_one_line(tmp_path, capsys, argv):
    # numpy refuses the seed with a traceback, which exited 1, "property failed"
    out = tmp_path / "out"
    assert run(argv + ["--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("eps, ell", [("1e-100", "1e-101"), ("1e-200", "1e-201")])
@pytest.mark.parametrize("command", ("certify", "tau-sweep"))
def test_tiny_eps_exits_2_with_one_line(tmp_path, capsys, command, eps, ell):
    # eps^-2 overflowed the float range at 1e-200 (OverflowError), and at
    # 1e-100 the radial Hessian did (eigvalsh did not converge): both ended
    # in a traceback and exit 1, after a screen of overflow warnings
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--eps", eps, "--ell", ell, "--samples", "100",
                    "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"eps {eps} and ell {ell}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--samples", "10"],
    ["tau-sweep", "--samples", "10"],
    ["simulate", "--depth", "3", "--num", "1"],
    ["telescope", "--depth", "3", "--num", "1"],
], ids=lambda argv: argv[0])
def test_dim_beyond_memory_exits_2_with_one_line(tmp_path, capsys, argv):
    # numpy refuses a request of petabytes before it touches any memory;
    # the refusal used to end in a traceback and exit 1
    out = tmp_path / "out"
    assert run(argv + ["--dim", "100000000000000", "--seed", "1",
                       "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "allocate" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--samples", "x", "--seed", "1"],
    ["certify", "--seed", "1"],
    ["certify", "--samples", "10", "--seed", "1", "--format", "bogus"],
    ["frobnicate"],
    [],
], ids=("bad-int", "missing-flag", "bad-choice", "unknown-command", "no-command"))
def test_argparse_errors_exit_2_with_one_line(capsys, argv):
    # argparse printed its usage block above the error: 3 or 4 lines
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: bellsub")


def test_help_exits_0(capsys):
    assert run(["certify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: bellsub certify")


@pytest.mark.parametrize("Q", ("1e306", "1e308"))
@pytest.mark.parametrize("command", ("certify", "tau-sweep"))
def test_q_past_the_float_range_exits_2_with_one_line(tmp_path, capsys, command, Q):
    # Q times the Hessian bound overflowed: an overflow warning and exit 0,
    # and at 1e308 a report reading band_hi inf
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--Q", Q, "--samples", "2000", "--seed", "1",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: Q {float(Q)!r}")
    assert not out.exists()


@pytest.mark.parametrize("command", ("certify", "tau-sweep"))
def test_q_1e300_still_passes(tmp_path, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--Q", "1e300", "--samples", "2000", "--seed", "1",
                    "--out", str(tmp_path / "out")]) == 0


def subparsers(parser):
    """{command: its subparser}"""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def unread_flags(parser):
    """(command, flag) for each flag of a subcommand that its `cmd_*`
    function never reads as `args.<dest>`, itself or through a function of
    `cli` it passes `args` to (`_cfg`, `_check_seed`, `_check_num`)."""
    tree = ast.parse(inspect.getsource(cli))
    reads, passes = {}, {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            reads[fn.name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                              and isinstance(n.value, ast.Name) and n.value.id == "args"}
            passes[fn.name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                               and isinstance(n.func, ast.Name)
                               and any(isinstance(a, ast.Name) and a.id == "args"
                                       for a in n.args)}

    def read(name, seen=()):
        return reads.get(name, set()).union(
            *(read(h, seen + (name,)) for h in passes.get(name, ()) if h not in seen))

    return sorted((command, action.option_strings[0])
                  for command, sp in subparsers(parser).items()
                  for action in sp._actions
                  if action.option_strings and action.dest != "help"
                  and action.dest not in read(cli.COMMANDS[command].__name__))


def test_every_flag_is_read_by_its_command():
    assert unread_flags(cli.build_parser()) == []


def test_flag_scan_finds_an_ignored_flag():
    # a flag the command accepts but never reads, as sharpness --seed once was
    parser = cli.build_parser()
    subparsers(parser)["sharpness"].add_argument("--seed", type=int)
    subparsers(parser)["certify"].add_argument("--unused-flag")
    assert unread_flags(parser) == [("certify", "--unused-flag"), ("sharpness", "--seed")]
