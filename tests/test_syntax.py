"""The package parses under the oldest Python that pyproject.toml declares.

`ast.parse` with `feature_version` rejects newer syntax only; library APIs
that a newer Python added are not checked here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)
SOURCES = sorted((ROOT / "src" / "nullcert").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_under_the_oldest_declared_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)
