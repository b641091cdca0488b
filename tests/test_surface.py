"""Every public definition of the package has a caller outside the tests.

Each top-level function or class and each non-dunder method under
src/restchroma/ must appear as a word somewhere in src/ or bench/, not
counting its own defining line or the re-exports in __init__.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "restchroma"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    """(name, path, line) of each checked definition in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFS):
                yield node.name, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, path, item.lineno


def test_every_definition_has_a_non_test_caller():
    sources = [p for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"]
    lines = {p: p.read_text().splitlines() for p in sources}
    defs = list(_definitions())
    own = {(name, path, line) for name, path, line in defs}
    unused = []
    for name, _, _ in defs:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(text) and (name, path, i) not in own
            for path, texts in lines.items()
            for i, text in enumerate(texts, 1)
        ):
            unused.append(name)
    assert not unused, f"defined in src/restchroma but reached only from tests: {sorted(set(unused))}"
