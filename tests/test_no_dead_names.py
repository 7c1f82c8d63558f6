"""No public name in ``src/repro`` that nothing mentions (ROADMAP 7(d)).

A public function, class, method or class-level constant (an
upper-case name assigned in a class body) is *dead* when its name occurs
nowhere in ``src/``, ``tests/``, ``examples/``, ``benchmarks/``, the
README, DESIGN.md or ``docs/`` except where it is defined: no caller,
no test, no example, not even a sentence of documentation. Such a name
is surface that costs reading time and refactoring care and buys
nothing; delete it, or — if it is deliberately kept for users — add it
to ``ALLOWED`` with the reason.

The check is lexical on purpose (one ``ast`` pass over ``src/repro``,
one regex pass over everything else): a name that is only ever reached
dynamically (``getattr`` on a computed string) would be reported, and
that is the conversation to have. Inside ``src/repro`` only *code*
mentions — a name loaded, an attribute read, a keyword passed, an
import: a docstring or comment there is not a user (two dead methods
naming each other in their docstrings are still dead); anywhere else
every word counts.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
ELSEWHERE = ("tests", "examples", "benchmarks", "docs", "README.md", "DESIGN.md")

#: name -> why it stays although nothing mentions it.
ALLOWED = {}


def scan_source():
    """Where each public function, class, method or class-level
    constant name under ``src/repro`` is defined, and every name its
    code mentions (a name being assigned is not a mention)."""
    defined, mentioned = {}, Counter()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    defined[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
                for stmt in node.body if isinstance(node, ast.ClassDef) else ():
                    for target in stmt.targets if isinstance(stmt, ast.Assign) else ():
                        name = getattr(target, "id", "_")
                        if name.isupper() and not name.startswith("_"):
                            defined[name] = f"{path.relative_to(ROOT)}:{stmt.lineno}"
            elif isinstance(node, ast.Name):
                mentioned[node.id] += not isinstance(node.ctx, ast.Store)
            elif isinstance(node, ast.Attribute):
                mentioned[node.attr] += 1
            elif isinstance(node, ast.keyword):
                mentioned[node.arg] += 1
            elif isinstance(node, ast.alias):
                mentioned.update(node.name.split("."))
    return defined, mentioned


def words_elsewhere():
    words = Counter()
    for entry in ELSEWHERE:
        top = ROOT / entry
        for path in [top] if top.is_file() else top.rglob("*"):
            if path.suffix in (".py", ".md") and path != pathlib.Path(__file__):
                words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


def test_every_public_name_is_mentioned_somewhere():
    defined, mentioned = scan_source()
    mentioned.update(words_elsewhere())
    dead = sorted(
        f"{name} ({where})"
        for name, where in defined.items()
        if not mentioned[name] and name not in ALLOWED
    )
    assert not dead, "defined but mentioned nowhere else:\n  " + "\n  ".join(dead)
    stale = sorted(name for name in ALLOWED if mentioned[name] or name not in defined)
    assert not stale, f"allow-listed but mentioned (or gone): {stale}"
