"""Every name `bellsub` re-exports is used outside the tests.

The public surface is what the CLI, the README and the package's own
modules use; a name that only tests reach is a second entry point that can
drift from the one the program runs.  This test parses
`src/bellsub/__init__.py` for the names it re-exports and looks for a use
of each one:

- a reference in another `src/bellsub` module, or in its own module outside
  its own definition (`__init__.py`'s re-export does not count);
- a mention in the code of `README.md`, its code blocks and inline code;
- a mention in `perfbench/*.py`, whose tracing names targets by string.

The README's "Library quick start" block is run as well: it is the surface
a reader meets first.
"""

import ast
import re

from source_rules import ROOT, SRC, sources

README = ROOT / "README.md"


def exports(init):
    """(module, name) for every name `init` re-exports from a submodule."""
    tree = ast.parse(init.read_text(), filename=str(init))
    return [(node.module, alias.asname or alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def references(path):
    """Names a module refers to, by name, attribute or import, leaving out
    each top-level definition's references to itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            found |= names - {None, own}
    return found


def readme_code(text):
    """The code of a markdown text: its fenced blocks and inline spans."""
    blocks = re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    return "\n".join(blocks + re.findall(r"`([^`\n]+)`", prose))


def quick_start(text):
    """The python block under the "Library quick start" heading."""
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)


def unused_exports():
    """Re-exported names with no use outside the tests."""
    used = set()
    for path in sources():
        if path.name != "__init__.py":
            used |= references(path)
    texts = [readme_code(README.read_text())]
    texts += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return sorted(name for _, name in exports(SRC / "__init__.py")
                  if name not in used
                  and not any(re.search(rf"\b{name}\b", t) for t in texts))


def test_guard_recognizes_each_use(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .a import imported\n"
                   "def recursive(n):\n"
                   "    return recursive(n - 1) + called(n)\n"
                   "class Node:\n"
                   "    def child(self):\n"
                   "        return Node(), self.attribute\n")
    assert references(src) == {"imported", "called", "self", "attribute", "n"}
    assert exports(SRC / "__init__.py")[0] == ("bellman", "BellmanConfig")
    text = "Use `alpha(x)` or\n```python\nbeta = 1\n```\nnot gamma.\n"
    code = readme_code(text)
    assert "alpha" in code and "beta" in code and "gamma" not in code


def test_every_export_is_used_outside_the_tests():
    unused = unused_exports()
    assert not unused, "re-exported, but used only by tests: " + ", ".join(unused)


def test_readme_quick_start_runs(capsys):
    code = quick_start(README.read_text())
    assert "bs.eval_B(" in code
    exec(compile(code, "README.md", "exec"), {})
    assert "overall_pass true" in capsys.readouterr().out
