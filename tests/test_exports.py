"""The public API has no unread names.

Each name in gridext.__all__ must be read somewhere besides its own
definition: by another module of the package, by the benchmark harness in
perfbench/, or by the documentation in README.md.
"""

import re
from pathlib import Path

import gridext

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridext"


def _readers():
    """The text of every reader, with each module's __all__ list cut out."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "README.md")
    for path in sources:
        text = path.read_text(encoding="utf-8")
        yield re.sub(r"^__all__ = \[.*?\]", "", text, flags=re.M | re.S)


def test_every_export_has_a_reader():
    readers = list(_readers())
    unread = []
    for name in gridext.__all__:
        word = re.compile(rf"(?<!\w){re.escape(name)}\b")
        # Its own definition: a def or class line, or a module-level assignment.
        definition = re.compile(rf"^(\s*(def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=])")
        if not any(
            word.search(line) and not definition.match(line)
            for text in readers
            for line in text.splitlines()
        ):
            unread.append(name)
    assert unread == []
