"""Short vector-axis reductions go through `weights.row_sum`/`row_norm`.

numpy reduces a short last axis one row per inner-loop call, several times
slower than the column additions of `row_sum`, which give the same bits.
This test parses the package sources and flags the idioms that would bring
the slow path back:

- `np.linalg.norm(..., axis=...)`, whatever the axis;
- `np.sum(..., axis=k)` or `a.sum(axis=k)` with k in {1, -1, 2}, the axes
  that hold vector coordinates (or a Hessian's row) in this package.

The one allowed use is `row_sum`'s own fallback to `np.sum`, for the rows of
8 or more that numpy sums pairwise.  Where numpy's summation order changes
(`PAIRWISE_MIN`) is likewise known to `weights` alone: a module that named it
would be working round `row_sum` instead of handing it a `lead`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsub"

VECTOR_AXES = {1, -1, 2}
ALLOWED = {("weights.py", "row_sum")}


def _const(node):
    """The integer a node spells, with unary minus folded; None otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const(node.operand)
        return None if inner is None else -inner
    return None


def _axis(call, position):
    """The axis argument of a call, by keyword or at a positional index."""
    for kw in call.keywords:
        if kw.arg == "axis":
            return kw.value
    return call.args[position] if len(call.args) > position else None


def _idiom(node):
    """Name of the reduction idiom a node spells, or None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    func = node.func
    if func.attr == "norm" and _axis(node, 2) is not None:
        return "norm(..., axis=...)"
    if func.attr == "sum":
        # np.sum(a, axis) against the method a.sum(axis)
        module_call = isinstance(func.value, ast.Name) and func.value.id == "np"
        axis = _axis(node, 1 if module_call else 0)
        if axis is not None and _const(axis) in VECTOR_AXES:
            return "sum(axis=1|-1|2)"
    return None


def reduction_uses(path):
    """(module, top-level definition or None, line, idiom) for every idiom in
    a source file."""
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
    src.write_text("def f(a):\n"
                   "    b = np.linalg.norm(a, axis=0) + np.linalg.norm(a, None, -1)\n"
                   "    c = np.sum(a, axis=1) + np.sum(a, -1) + a.sum(axis=2) + a.sum(1)\n"
                   "    d = np.linalg.norm(a) + np.sum(a, axis=0) + a.sum() + a.sum(0)\n"
                   "    return np.sum(a * a, axis=-1)\n")
    found = sorted(idiom for *_, idiom in reduction_uses(src))
    assert found == sorted(["norm(..., axis=...)"] * 2 + ["sum(axis=1|-1|2)"] * 5)


def test_short_vector_reductions_go_through_the_row_helpers():
    stray = [use for path in sorted(SRC.glob("*.py"))
             for use in reduction_uses(path) if use[:2] not in ALLOWED]
    assert not stray, "vector-axis reduction outside weights.row_sum: " + "; ".join(
        f"{mod}:{line} {owner or '<module>'} {idiom}" for mod, owner, line, idiom in stray)


def test_allow_list_names_live_uses():
    # a stale entry would silently exempt a future function of that name
    for module, name in ALLOWED:
        owners = {use[1] for use in reduction_uses(SRC / module)}
        assert name in owners, f"{module}:{name} no longer reduces with numpy"


def names_pairwise_min(path):
    """Lines of a source file that name PAIRWISE_MIN: imported, read or
    reached as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if "PAIRWISE_MIN" in (getattr(node, "id", None), getattr(node, "attr", None))
                   or (isinstance(node, ast.ImportFrom)
                       and any(alias.name == "PAIRWISE_MIN" for alias in node.names))})


def test_pairwise_guard_recognizes_each_spelling(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .weights import PAIRWISE_MIN as P\n"
                   "from . import weights\n"
                   "def f(d):\n"
                   "    return d < weights.PAIRWISE_MIN or d < PAIRWISE_MIN\n")
    assert names_pairwise_min(src) == [1, 4]


def test_only_weights_names_pairwise_min():
    stray = {path.name: names_pairwise_min(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "weights.py"}
    assert not any(stray.values()), "PAIRWISE_MIN outside weights: " + "; ".join(
        f"{mod}:{lines}" for mod, lines in stray.items() if lines)
    assert names_pairwise_min(SRC / "weights.py")
