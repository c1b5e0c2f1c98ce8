"""Static scans of the package sources, shared by the source guards.

`sources` is the one list of the package's modules.  `uses` attributes each
spelling a rule's predicate finds to the top-level definition holding it;
`strays` and `stale` compare the uses with a home module and an allow-list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bellsub"


def sources(src=SRC):
    return sorted(src.glob("*.py"))


def number(node):
    """The number a node spells, with unary minus folded; None otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = number(node.operand)
        return None if inner is None else -inner
    return None


def names(node, name):
    """Whether a node reads `name`, reaches it as an attribute or imports it."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None)) or (
        isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))


def uses(path, spell):
    """(module, top-level definition or None, line, spelling) for every
    spelling `spell(node)` yields in a source file, by line and spelling."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(path.name, getattr(top, "name", None), node.lineno, what)
             for top in tree.body for node in ast.walk(top) for what in spell(node)]
    return sorted(found, key=lambda use: use[2:])


def strays(spell, home, allowed, src=SRC):
    """Uses outside the home module whose (module, owner, spelling) is not allowed."""
    return [use for path in sources(src) if path.name != home
            for use in uses(path, spell) if (use[0], use[1], use[3]) not in allowed]


def stale(spell, allowed):
    """Allowed entries with no use left: each would exempt a future namesake."""
    return sorted(entry for entry in allowed if entry not in
                  {(m, owner, what) for m, owner, _, what in uses(SRC / entry[0], spell)})
