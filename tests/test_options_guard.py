"""Every parameter and dataclass field with a default in `src/bellsub` has
a stated reason.

A parameter with a default is a setting.  When every caller leaves it at
one value it is a constant in disguise, and each such setting doubles the
configurations that tests must cover.  This test parses `src/bellsub/*.py`
for every parameter with a default, positional or keyword-only, in
functions, methods and lambdas, and for every field with a default of a
dataclass (a parameter of its generated constructor), and compares them
with ALLOWED, which gives the caller that sets each one.  It fails on a
defaulted parameter or field that is not listed and on a listed one that
is gone.
"""

import ast

from source_rules import names, sources

IGNORED_SEED = "perfbench/workloads.py passes it; ignored"

# (module, qualified function or dataclass name, parameter or field) -> why it
# stays settable
ALLOWED = {
    ("bellman", "BellmanConfig", "Q"): "the CLI's --Q",
    ("bellman", "BellmanConfig", "eps"): "the CLI's --eps",
    ("bellman", "BellmanConfig", "ell"): "the CLI's --ell",
    ("bellman", "BellmanConfig", "dim"): "the CLI's --dim",
    ("bellman", "kn_of_t", "order"): "_batch passes its order, mollify 1 for K'; "
                                     "the value paths use 0",
    ("bellman", "_fill", "g"): "h4_value and profile_value want the value alone",
    ("bellman", "_fill", "h"): "_batch passes None at order 1",
    ("bellman", "evaluate_batch", "order"): "order 1 in estimates and mollify, "
                                            "2 in certify",
    ("bellman", "one_leg_margin", "constant"): "mollify checks the weakened 1/Q",
    ("bellman", "one_leg_margin", "lead"): "the telescope passes its anchor's "
                                           "increment 0",
    ("certify", "check_c1_across_cuts", "seed"): IGNORED_SEED,
    ("certify", "run_certification", "jobs"): "the certify command's --jobs",
    ("cli", "main", "argv"): "None reads sys.argv; tests and perfbench pass a list",
    ("estimates", "bellman_telescope", "anchor"): "the telescope command's --anchor-mult",
    ("estimates", "verify_main_theorem", "seed"): IGNORED_SEED,
    ("martingales", "transform", "sigma0"): "the commands pass 1, tests -1 and -0.75",
    ("mollify", "default_grid_spec", "cells"): "perfbench's smoke size passes 2",
    ("mollify", "composite_one_leg_margins", "n_pairs"): "criterion 7 draws 300 "
                                                         "pairs, the certify "
                                                         "workload 200",
    ("mollify", "composite_one_leg_margins", "seed"): "criterion 7 and perfbench "
                                                      "pick the pair draw",
    ("sharpness", "sharpness_experiment", "seed"): IGNORED_SEED,
    ("weights", "row_sum", "lead"): "one_leg_margin passes the telescope's anchor",
    ("weights", "row_norm", "lead"): "the telescope's state norms and one_leg_margin "
                                     "pass its anchor",
}


def is_dataclass(node):
    return any(names(d.func if isinstance(d, ast.Call) else d, "dataclass")
               for d in node.decorator_list)


def defaulted(path):
    """(module, qualified name, parameter) for each parameter with a default,
    and (module, qualified class name, field) for each dataclass field with one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    found.update((path.stem, prefix + child.name, f.target.id)
                                 for f in child.body if isinstance(f, ast.AnnAssign)
                                 and f.value is not None)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                qual = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                params = positional[len(positional) - len(args.defaults):]
                params += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                found.update((path.stem, qual, a.arg) for a in params)
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_scan_finds_every_kind_of_default(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def plain(a, b=1, *args, c, d=2, **kw):\n"
                   "    def inner(e=3):\n"
                   "        return lambda f=4: f\n"
                   "    return inner\n"
                   "class Box:\n"
                   "    def method(self, g, /, h=5):\n"
                   "        return h\n"
                   "def required(i, j):\n"
                   "    return i\n"
                   "@dataclass(frozen=True)\n"
                   "class Config:\n"
                   "    k: int\n"
                   "    m: int = 6\n"
                   "@dataclasses.dataclass\n"
                   "class Record:\n"
                   "    n: str = ''\n"
                   "class Plain:\n"
                   "    o: int = 7\n")
    assert defaulted(src) == {("m", "plain", "b"), ("m", "plain", "d"),
                              ("m", "plain.inner", "e"),
                              ("m", "plain.inner.<lambda>", "f"),
                              ("m", "Box.method", "h"), ("m", "Config", "m"),
                              ("m", "Record", "n")}


def test_every_default_has_a_reason():
    found = set().union(*map(defaulted, sources()))
    unlisted = sorted(found - set(ALLOWED))
    assert not unlisted, f"defaulted parameters without a reason: {unlisted}"


def test_allow_list_has_no_stale_entry():
    found = set().union(*map(defaulted, sources()))
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"listed, but no longer a defaulted parameter: {stale}"
