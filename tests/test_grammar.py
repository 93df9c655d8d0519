"""Every source file parses as Python 3.10, the oldest version pyproject.toml admits.

This checks grammar only, and as far as ``ast.parse(feature_version=...)``
does: it refuses ``except*`` (3.11), but on Python 3.11 it still accepts a
starred subscript (``a[*b]``, also 3.11).  A call to a standard-library API
added after 3.10 passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_as_python_3_10():
    sources = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert {path.parent.name for path in sources} == {"heavyfed", "tests", "bench"}
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
