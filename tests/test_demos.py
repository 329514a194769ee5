"""Every name the demos and the README quick start import from qdswarm exists.

The demos take about half a minute to run, so the suite does not run them;
this check reads their imports with `ast` instead, so that removing a public
name they use fails here.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sources():
    """(label, code) of each demo script and of the README quick-start block."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.DOTALL)
    assert block, "README has no Library quick start python block"
    yield "README.md", block.group(1)


def qdswarm_imports(code):
    """(module, name) of every `from qdswarm[.submodule] import name` in `code`."""
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdswarm":
            for alias in node.names:
                yield node.module, alias.name


def test_demo_and_readme_imports_exist():
    imported = [(label, *pair) for label, code in sources() for pair in qdswarm_imports(code)]
    assert imported
    missing = [
        (label, module, name)
        for label, module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
