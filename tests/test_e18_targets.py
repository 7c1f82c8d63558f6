"""Every function E18's traced pass binds by name still exists.

``benchmarks/e18/spans.py`` wraps the program's layer entry points by
``module:attr`` (``TARGETS``); a refactor that renames one leaves that
layer silently reading zero, and only a stderr line of a traced run
(``e18 spans: no such target``) says so. This resolves each target the
way ``SpanLog.install`` does, so the test suite finds out first. It
reads the benchmark; it does not edit it.
"""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e18" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("e18_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    missing = []
    for module_name, path, *__ in spans.TARGETS:
        owner = spans._resolve_owner(module_name, path)
        if owner is None or path.rsplit(".", 1)[-1] not in vars(owner):
            missing.append(f"{module_name}:{path}")
    assert not missing, f"e18 spans: no such target {missing}"
