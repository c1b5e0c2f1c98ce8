"""Each formula is spelled in one module: the rules of the source guards.

A rule is a spelling predicate over AST nodes; the formula's home module
(None: no module is exempt); an allow-list mapping (module, top-level owner,
spelling) to the reason it stays; a sample source and the (line, spelling)
list it yields; and the (module, expression, spelling) triples to plant in
a copy of the package.  Every test runs every rule through the scanner
`source_rules`."""

import ast
import shutil
from collections import namedtuple

import pytest

from source_rules import SRC, names, number, stale, strays, uses


def layout(node):
    """The dyadic tree layout: node i's children are 2i and 2i+1, and level k
    carries mass 2^-k per node.  `weights.child_pairs`, `parent_average`,
    `pair_increments` and `levels_from_increments` hold it, so a filtration
    with other splits changes one module.  Spelled elsewhere as:

    - `np.repeat(..., 2)`, spreading a parent to its two children;
    - a slice with step 2, such as `0::2` or `1::2`, picking one child of each pair;
    - a reshape whose second positional argument is 2: the pair reshape
      `reshape(-1, 2)` or the (node, child, rest) view `reshape(2 ** k, 2, -1)`;
    - a power of two with a negated exponent, such as `2.0 ** (-k)`, a level mass.
    """
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "repeat":
            reps = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "repeats"]
            if any(number(r) == 2 for r in reps):
                yield "np.repeat(..., 2)"
        if node.func.attr == "reshape" and [number(a) for a in node.args[1:2]] == [2]:
            yield "reshape(n, 2, ...)"
    if isinstance(node, ast.Slice) and node.step is not None and number(node.step) == 2:
        yield "step-2 slice"
    if isinstance(node, ast.Tuple) and [number(e) for e in node.elts[:2]] == [-1, 2]:
        yield "(-1, 2) pair shape"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and number(node.left) == 2 and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)):
        yield "2 ** (-k) level mass"


def reduction(node):
    """Short vector-axis reductions: numpy reduces a short last axis one row
    per inner-loop call, several times slower than the column additions of
    `weights.row_sum`/`row_norm`, which give the same bits.  Spelled as:

    - `np.linalg.norm(...)`, with or without an axis: on one vector it takes
      a dot product, whose bits differ from `row_norm`'s on the same row;
    - `np.sum(..., axis=k)` or `a.sum(axis=k)` with k in {1, -1, 2}, the axes
      that hold vector coordinates (or a Hessian's row) in this package.
    """
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        def axis(position):   # by keyword, or at a positional index
            given = [kw.value for kw in node.keywords if kw.arg == "axis"]
            return (given + node.args[position:position + 1] + [None])[0]
        if node.func.attr == "norm":
            yield "norm(...)"
        # np.sum(a, axis) against the method a.sum(axis)
        np_call = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        if node.func.attr == "sum" and number(axis(1 if np_call else 0)) in {1, -1, 2}:
            yield "sum(axis=1|-1|2)"


def pairwise(node):
    """`PAIRWISE_MIN`, imported, read or reached as an attribute: where numpy's
    summation order changes is known to `weights` alone, and a module that
    named it would be working round `row_sum` instead of handing it a `lead`."""
    if names(node, "PAIRWISE_MIN"):
        yield "PAIRWISE_MIN"


def domain(node):
    """Membership in D_Q^{eps,ell}: `bellman.domain_masks` holds the rule
    (r, s > 0 with 1 <= rs <= Q, then eps <= r, s <= 1/eps, then |x|, |y| >=
    ell, every face widened by the one relative slack `_RS_SLACK`), which
    `evaluate_point`, the telescope and the mollified composite read.  Spelled as:

    - a comparison that reads an attribute `.Q`, `.eps` or `.ell`, such as
      `r * s <= cfg.Q` or `a < cfg.ell`: a face of the domain spelled again;
    - any use of the name `_RS_SLACK`.
    """
    if isinstance(node, ast.Compare):
        yield from {f".{sub.attr}" for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and sub.attr in {"Q", "eps", "ell"}}
    if names(node, "_RS_SLACK"):
        yield "_RS_SLACK"


Rule = namedtuple("Rule", "spell home allowed sample found plants")

RULES = {
    "layout": Rule(layout, "weights.py", {
        ("sharpness.py", "_apply_tsigma", "step-2 slice"):
            "T_sigma, the O(2^n) operator of the sharpness search, keeps its even/odd loop",
        ("sharpness.py", "_ascend_sigma", "reshape(n, 2, ...)"):
            "the sign ascent views the leaves under each level-k node's two children "
            "in place, the fast path of the sharpness search",
    }, "def f(a, k):\n"
       "    b = np.repeat(a, 2, axis=0)\n"
       "    c = a[0::2] + a[1::2]\n"
       "    d = a.reshape((-1, 2) + a.shape[1:])\n"
       "    e = a.reshape(-1, 2) + a.reshape(2 ** k, 2, -1)\n"
       "    return 2.0 ** (-(k + 1)) + np.repeat(a, repeats=2)\n",
       [(2, "np.repeat(..., 2)"), (3, "step-2 slice"), (3, "step-2 slice"),
        (4, "(-1, 2) pair shape"), (5, "reshape(n, 2, ...)"), (5, "reshape(n, 2, ...)"),
        (6, "2 ** (-k) level mass"), (6, "np.repeat(..., 2)")],
       [("estimates.py", "np.repeat(a, 2)", "np.repeat(..., 2)"),
        ("sharpness.py", "a.reshape(2 ** r, 2, -1)", "reshape(n, 2, ...)")]),
    "reduction": Rule(reduction, None, {
        ("weights.py", "row_sum", "sum(axis=1|-1|2)"):
            "row_sum's fallback for the rows of 8 or more that numpy sums pairwise",
    }, "def f(a):\n"
       "    b = np.linalg.norm(a, axis=0) + np.linalg.norm(a, None, -1)\n"
       "    c = np.sum(a, axis=1) + np.sum(a, -1) + a.sum(axis=2) + a.sum(1)\n"
       "    d = np.linalg.norm(a) + np.sum(a, axis=0) + a.sum() + a.sum(0)\n"
       "    return np.sum(a * a, axis=-1)\n",
       [(2, "norm(...)")] * 2 + [(3, "sum(axis=1|-1|2)")] * 4 + [(4, "norm(...)")]
       + [(5, "sum(axis=1|-1|2)")],
       [("estimates.py", "np.sum(a, axis=-1)", "sum(axis=1|-1|2)")]),
    "pairwise": Rule(pairwise, "weights.py", {},
       "from .weights import PAIRWISE_MIN as P\n"
       "from . import weights\n"
       "def f(d):\n"
       "    return d < weights.PAIRWISE_MIN or d < PAIRWISE_MIN\n",
       [(1, "PAIRWISE_MIN"), (4, "PAIRWISE_MIN"), (4, "PAIRWISE_MIN")],
       [("certify.py", "len(a) < PAIRWISE_MIN", "PAIRWISE_MIN")]),
    "domain": Rule(domain, "bellman.py", {
        ("mollify.py", "MollifiedH4", ".ell"):
            "cut distances against MollifiedH4's own kernel radius self.ell",
    }, "from .bellman import _RS_SLACK as S\n"
       "from . import bellman\n"
       "def f(r, s, cfg):\n"
       "    ok = (r * s <= cfg.Q) & (r >= cfg.eps * (1 - bellman._RS_SLACK))\n"
       "    lo = cfg.eps * S\n"
       "    return ok and not r < self.ell and min(cfg.Q, lo) == lo\n",
       [(1, "_RS_SLACK"), (4, ".Q"), (4, ".eps"), (4, "_RS_SLACK"), (6, ".Q"), (6, ".ell")],
       [("mollify.py", "r * s <= cfg.Q", ".Q")]),
}

rules = pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))


@rules
def test_rule_recognizes_each_spelling(rule, tmp_path):
    (tmp_path / "m.py").write_text(rule.sample)
    assert [use[2:] for use in uses(tmp_path / "m.py", rule.spell)] == rule.found


@rules
def test_rule_has_no_stray_spelling(rule):
    stray = strays(rule.spell, rule.home, rule.allowed)
    assert not stray, f"spelled outside {rule.home}: " + "; ".join(
        f"{mod}:{line} {owner or '<module>'} {what}" for mod, owner, line, what in stray)


@rules
def test_allow_list_has_no_stale_entry(rule):
    assert stale(rule.spell, rule.allowed) == []
    assert rule.home is None or uses(SRC / rule.home, rule.spell), f"{rule.home} spells none"


@rules
def test_rule_catches_a_planted_spelling(rule, tmp_path):
    shutil.copytree(SRC, tmp_path, dirs_exist_ok=True)
    for module, expression, what in rule.plants:
        path = tmp_path / module
        planted = f"\n\ndef planted(a, r, s, cfg):\n    return {expression}\n"
        path.write_text(path.read_text() + planted)
        line = len(path.read_text().splitlines())
        found = strays(rule.spell, rule.home, rule.allowed, tmp_path)
        assert (module, "planted", line, what) in found
