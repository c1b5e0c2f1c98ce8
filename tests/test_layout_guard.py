"""The dyadic tree layout is spelled only in `bellsub.weights`.

Node i's children are 2i and 2i+1, and level k carries mass 2^-k per node.
`weights.child_pairs`, `parent_average`, `pair_increments` and
`levels_from_increments` hold that layout; every other module goes through
them, so a filtration with other splits changes one module.  This test
parses the package sources and flags the idioms that spell the layout
elsewhere:

- `np.repeat(..., 2)`, spreading a parent to its two children;
- a slice with step 2, such as `0::2` or `1::2`, picking one child of each pair;
- a `(-1, 2)` pair reshape;
- a power of two with a negated exponent, such as `2.0 ** (-k)`, a level mass.

The sharpness kernels below keep their own even/odd loops on purpose: they
are the O(2^n) fast path of the sign search, and `_ascend_sigma` spreads its
signs to the children with `np.repeat`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsub"

LAYOUT_MODULE = "weights.py"
ALLOWED = {
    ("sharpness.py", "_apply_tsigma"),
    ("sharpness.py", "_sqfun_operator"),
    ("sharpness.py", "_ascend_sigma"),
}


def _const(node):
    """The number a node spells, with unary minus folded; None otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const(node.operand)
        return None if inner is None else -inner
    return None


def _idiom(node):
    """Name of the layout idiom a node spells, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "repeat":
            reps = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "repeats"]
            if any(_const(r) == 2 for r in reps):
                return "np.repeat(..., 2)"
        if node.func.attr == "reshape" and [_const(a) for a in node.args[:2]] == [-1, 2]:
            return "reshape(-1, 2)"
    if isinstance(node, ast.Slice) and node.step is not None and _const(node.step) == 2:
        return "step-2 slice"
    if isinstance(node, ast.Tuple) and [_const(e) for e in node.elts[:2]] == [-1, 2]:
        return "(-1, 2) pair shape"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and _const(node.left) == 2 and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)):
        return "2 ** (-k) level mass"
    return None


def layout_uses(path):
    """(module, top-level function or None, line, idiom) for every idiom in
    a source file, attributed to the enclosing top-level definition."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            idiom = _idiom(node)
            if idiom:
                uses.append((path.name, owner, node.lineno, idiom))
    return uses


def test_guard_recognizes_each_idiom(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a, k):\n"
                   "    b = np.repeat(a, 2, axis=0)\n"
                   "    c = a[0::2] + a[1::2]\n"
                   "    d = a.reshape((-1, 2) + a.shape[1:])\n"
                   "    e = a.reshape(-1, 2)\n"
                   "    return 2.0 ** (-(k + 1)) + np.repeat(a, repeats=2)\n")
    found = sorted(idiom for *_, idiom in layout_uses(src))
    assert found == sorted(["np.repeat(..., 2)", "np.repeat(..., 2)", "step-2 slice",
                            "step-2 slice", "(-1, 2) pair shape", "reshape(-1, 2)",
                            "2 ** (-k) level mass"])


def test_dyadic_layout_lives_in_weights_only():
    stray = [use for path in sorted(SRC.glob("*.py")) if path.name != LAYOUT_MODULE
             for use in layout_uses(path) if use[:2] not in ALLOWED]
    assert not stray, "dyadic layout spelled outside bellsub.weights: " + "; ".join(
        f"{mod}:{line} {owner or '<module>'} {idiom}" for mod, owner, line, idiom in stray)


def test_allow_list_names_live_kernels():
    # a stale entry would silently exempt a future function of that name
    for module, name in ALLOWED:
        owners = {use[1] for use in layout_uses(SRC / module)}
        assert name in owners, f"{module}:{name} no longer spells the layout"
