"""Every public module-level function and class of freelip is used by the
package itself: by a claim, a command or another library path.

The scan reads the source with `ast`.  A name counts as used when some
other top-level definition, or a module's top-level code, mentions it as a
plain name or an attribute; its own body and `__init__` exports do not
count.  A definition that only unused definitions mention is unused too,
so the scan removes them until nothing changes.  Names are matched by
spelling alone, so a clash with another name can hide an unused
definition, never invent one.
"""

import ast
from pathlib import Path

import freelip

PACKAGE = Path(freelip.__file__).resolve().parent

# Public names that no library code calls, kept on purpose.
KEPT = {
    "simplex.lipschitz_dual":
        "BENCHMARK.json's per-layer metrics name it, so bench/ requires it to exist",
    "simplex.min_l1_combination":
        "BENCHMARK.json's per-layer metrics name it; it is also the tests' dense "
        "quotient-norm reference",
    "linalg.inverse":
        "BENCHMARK.json's per-layer metrics name it",
    "haar_system.andrew_lower_bound":
        "the paper's averaging argument (Grunbaum 1960, Rudin 1962), not yet a claim",
    "metric.elementary_molecule":
        "the tests' transport oracles are built from it",
    "linalg.mat_add":
        "the tests' dense group-averaging oracle is built from it",
}


def _scan(package: Path):
    """(defs, mentions): "module.name" -> node for every public top-level
    function and class, and name -> the set of "module.name" definitions
    (or bare module names, for top-level code) that mention it."""
    defs = {}
    mentions = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = module
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{module}.{node.name}"
                if not node.name.startswith("_"):
                    defs[owner] = node
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None:
                    mentions.setdefault(name, set()).add(owner)
    return defs, mentions


def _unused(defs, mentions, kept) -> list[str]:
    """Public definitions mentioned only by themselves or by other unused
    ones; the kept names count as used."""
    unused: set[str] = set()
    while True:
        dead = {key for key, node in defs.items()
                if key not in unused and key not in kept
                and not mentions.get(node.name, set()) - unused - {key}}
        if not dead:
            return sorted(unused)
        unused |= dead


def test_every_public_name_is_used_in_the_package():
    defs, mentions = _scan(PACKAGE)
    unused = _unused(defs, mentions, KEPT)
    assert not unused, f"public names no claim, command or library path uses: {unused}"


def test_kept_names_exist_and_are_otherwise_unused():
    # an entry whose name is gone, or that library code now calls, is stale
    defs, mentions = _scan(PACKAGE)
    for key in KEPT:
        assert key in defs, key
        assert mentions.get(defs[key].name, set()) <= {key}, key
