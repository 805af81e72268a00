"""README's "Library layout" table, "CLI" synopsis and size-cap list name
only things the package has.

Deleting or renaming a public name, a command-line option or a size cap
without updating README fails here.
"""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import freelip
from freelip.cli import build_parser

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


def _unknown_cli_flags(text):
    """(command, flag) for every --flag on a `freelip <cmd>` line of the
    CLI synopsis that the subcommand's parser does not define."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    out = []
    for line in block.splitlines():
        words = line.split()
        if len(words) < 2 or words[0] != "freelip":
            continue
        known = sub.choices[words[1]]._option_string_actions
        out += [(words[1], f) for f in re.findall(r"--[a-z][a-z-]*", line) if f not in known]
    return out


def test_cli_synopsis_flags_exist():
    text = README.read_text(encoding="utf-8")
    assert _unknown_cli_flags(text) == []
    stale = text.replace("--vector x.json", "--vector x.json [--mode exact|float]", 1)
    assert _unknown_cli_flags(stale) == [("quotient-norm", "--mode")]


def _size_caps(text):
    """The `module.CONSTANT` names of README's "Size caps" paragraph."""
    paragraph = text.split("Size caps", 1)[1].split("\n\n", 1)[0]
    return [f"{module}.{name}" for module, name
            in re.findall(r"`([a-z_]+)\.([A-Z][A-Z0-9_]*)`", paragraph)]


def _undefined(names):
    pairs = (n.split(".") for n in names)
    return [f"{m}.{c}" for m, c in pairs if not hasattr(importlib.import_module(f"freelip.{m}"), c)]


def test_size_cap_list_names_existing_constants():
    text = README.read_text(encoding="utf-8")
    caps = _size_caps(text)
    assert len(caps) == 9 and _undefined(caps) == []
    stale = text.replace("projections.MAX_LP_NONZEROS", "projections.MAX_DENSE_LP_BYTES", 1)
    assert _undefined(_size_caps(stale)) == ["projections.MAX_DENSE_LP_BYTES"]
