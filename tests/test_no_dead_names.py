"""No public name in ``src/repro`` that nothing mentions (ROADMAP 7(d)).

A public function, class, method or class-level constant (an
upper-case name assigned in a class body) is *dead* when nothing in
``src/``, ``tests/``, ``examples/``, ``benchmarks/``, the README,
DESIGN.md or ``docs/`` uses it except where it is defined: no caller,
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

A method or property is only ever reached through an object, so it
counts as used only where it is reached that way: as an attribute
(``x.name``) or a keyword in code under ``src/``, as ``.name`` in text
elsewhere. A bare word is not a use of one — method names such as
"shard" or "initialized" are common words that prose mentions
everywhere.
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
    """Where each public name under ``src/repro`` is defined, which of
    them only ever as a method, every name its code mentions (a name
    being assigned is not a mention), and every name it reaches as an
    attribute or passes as a keyword."""
    defined, methods, others = {}, set(), set()
    mentioned, reached = Counter(), Counter()
    for path in sorted(SOURCE.rglob("*.py")):
        where = path.relative_to(ROOT)
        in_class = set()  # ast.walk visits a class before its body
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    defined[node.name] = f"{where}:{node.lineno}"
                    is_method = id(node) in in_class
                    (methods if is_method else others).add(node.name)
                for stmt in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        in_class.add(id(stmt))
                    for target in stmt.targets if isinstance(stmt, ast.Assign) else ():
                        name = getattr(target, "id", "_")
                        if name.isupper() and not name.startswith("_"):
                            defined[name] = f"{where}:{stmt.lineno}"
            elif isinstance(node, ast.Name):
                mentioned[node.id] += not isinstance(node.ctx, ast.Store)
            elif isinstance(node, ast.Attribute):
                mentioned[node.attr] += 1
                reached[node.attr] += 1
            elif isinstance(node, ast.keyword):
                mentioned[node.arg] += 1
                reached[node.arg] += 1
            elif isinstance(node, ast.alias):
                mentioned.update(node.name.split("."))
    # A name also defined outside a class body keeps the bare-word rule.
    return defined, methods - others, mentioned, reached


def text_elsewhere():
    """Every word outside ``src/repro``, and every word after a dot."""
    words, dotted = Counter(), Counter()
    for entry in ELSEWHERE:
        top = ROOT / entry
        for path in [top] if top.is_file() else top.rglob("*"):
            if path.suffix in (".py", ".md") and path != pathlib.Path(__file__):
                text = path.read_text()
                words.update(re.findall(r"[A-Za-z_]\w*", text))
                dotted.update(re.findall(r"\.([A-Za-z_]\w*)", text))
    return words, dotted


def test_every_public_name_is_mentioned_somewhere():
    defined, methods, mentioned, reached = scan_source()
    words, dotted = text_elsewhere()
    used = mentioned + words
    used_as_method = reached + dotted
    dead = sorted(
        f"{name} ({where})"
        for name, where in defined.items()
        if not (used_as_method if name in methods else used)[name]
        and name not in ALLOWED
    )
    assert not dead, "defined but mentioned nowhere else:\n  " + "\n  ".join(dead)
    stale = sorted(name for name in ALLOWED if used[name] or name not in defined)
    assert not stale, f"allow-listed but mentioned (or gone): {stale}"
