"""Membership in D_Q^{eps,ell} is decided only in `bellsub.bellman`.

`bellman.domain_masks` holds the rule: r, s > 0 with 1 <= rs <= Q, then
eps <= r, s <= 1/eps, then |x|, |y| >= ell, every face widened by the one
relative slack `_RS_SLACK`.  `evaluate_point` (and through it `eval_B`),
the telescope and the mollified composite all read it.
This test parses the package sources and flags, outside `bellman`:

- a comparison that reads an attribute `.Q`, `.eps` or `.ell`, such as
  `r * s <= cfg.Q` or `a < cfg.ell`: a face of the domain spelled again;
- any use of the name `_RS_SLACK`.

Two comparisons with ell stay: the telescope's check that its anchor is at
least ell, a bound on a parameter rather than on a state, and
`MollifiedH4`'s comparison of cut distances with its own kernel radius
`self.ell`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsub"

RULE_MODULE = "bellman.py"
FACE_ATTRS = {"Q", "eps", "ell"}
ALLOWED = {
    ("estimates.py", "bellman_telescope", ".ell"),
    ("mollify.py", "MollifiedH4", ".ell"),
}


def _spellings(node):
    """What a node spells of the domain rule: '.Q', '.eps' or '.ell' read
    in a comparison, or '_RS_SLACK'."""
    found = set()
    if isinstance(node, ast.Compare):
        found |= {f".{sub.attr}" for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and sub.attr in FACE_ATTRS}
    if "_RS_SLACK" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "_RS_SLACK" for alias in node.names)):
        found.add("_RS_SLACK")
    return found


def domain_uses(path):
    """(module, top-level definition or None, line, spelling) for every
    spelling of the domain rule in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            uses |= {(path.name, owner, node.lineno, what) for what in _spellings(node)}
    return sorted(uses, key=lambda use: (use[2], use[3]))


def test_guard_recognizes_each_spelling(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .bellman import _RS_SLACK as S\n"
                   "from . import bellman\n"
                   "def f(r, s, cfg):\n"
                   "    ok = (r * s <= cfg.Q) & (r >= cfg.eps * (1 - bellman._RS_SLACK))\n"
                   "    lo = cfg.eps * S\n"
                   "    return ok and not r < self.ell and min(cfg.Q, lo) == lo\n")
    found = [(line, what) for _, _, line, what in domain_uses(src)]
    assert found == [(1, "_RS_SLACK"), (4, ".Q"), (4, ".eps"), (4, "_RS_SLACK"),
                     (6, ".Q"), (6, ".ell")]


def test_only_bellman_decides_domain_membership():
    stray = [use for path in sorted(SRC.glob("*.py")) if path.name != RULE_MODULE
             for use in domain_uses(path) if (use[0], use[1], use[3]) not in ALLOWED]
    assert not stray, "domain rule spelled outside bellman: " + "; ".join(
        f"{mod}:{line} {owner or '<module>'} {what}" for mod, owner, line, what in stray)
    assert domain_uses(SRC / RULE_MODULE)


def test_allow_list_names_live_uses():
    # a stale entry would silently exempt a future comparison of that name
    for module, owner, what in ALLOWED:
        assert (owner, what) in {(use[1], use[3]) for use in domain_uses(SRC / module)}, \
            f"{module}:{owner} no longer compares with {what}"
