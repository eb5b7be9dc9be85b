"""Every callable that the benchmark tracer patches exists in the package.

Traced benchmark runs (`perfbench/run.py --trace 1`) patch each
`(module, attribute)` of the `TRACED` table in `perfbench/tracing.py`, and
their per-layer metrics are summed from those spans.  A renamed or deleted
function would break those runs, which the tests do not otherwise make.  The
table is read from the file, without importing the benchmark code.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TRACED table in perfbench/tracing.py")


@pytest.mark.parametrize("module,attr", _traced(), ids=lambda part: part)
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"nullcert.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
