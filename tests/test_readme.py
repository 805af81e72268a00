"""README's "Library layout" table names only things the package has.

Deleting or renaming a public name without updating the table fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import freelip

README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_identifiers():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `freelip.")]
    # the package and its module names are not attributes; commands such as
    # `freelip reproduce` are not identifiers
    return {name for row in rows for name in re.findall(r"`([^`]+)`", row)
            if name.isidentifier() and name != "freelip"}


def test_layout_table_names_existing_attributes():
    modules = [importlib.import_module(f"freelip.{info.name}")
               for info in pkgutil.iter_modules(freelip.__path__)]
    names = _layout_identifiers()
    assert len(names) > 50
    missing = sorted(n for n in names if not any(hasattr(m, n) for m in modules))
    assert not missing, f"README layout names no freelip attribute: {missing}"
