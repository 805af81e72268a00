"""Every public module-level function and class of freelip, every public
method, property and annotated (dataclass) field of its public classes,
and every option of its command line is used by the package itself: by a
claim, a command or another library path.  No module uses another
module's underscore names, neither its module-level names nor the members
of its classes, and no function imports a module other than numpy or
scipy.

The scan reads the source with `ast`.  A name counts as used when some
other definition, or a module's top-level code, mentions it: a top-level
name as a plain name or an attribute, a member as an attribute only.  Its
own body (for a class, its members too) and `__init__` exports do not
count.  A definition that only unused definitions mention is unused too,
so the scan removes them until nothing changes.  Names are matched by
spelling alone, so a clash with another name can hide an unused
definition, never invent one.
"""

import ast
import inspect
from pathlib import Path

import freelip
from freelip.cli import build_parser

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
    "linalg.rref":
        "BENCHMARK.json's per-layer metrics name it; solve runs gauss_jordan "
        "directly, since it needs no Fraction echelon form",
    "linalg.mat_mul":
        "BENCHMARK.json's per-layer metrics name it; the tests' dense Fraction "
        "oracles are built from it",
    "recursive.edge_map_matrix":
        "bench/workloads.py builds the group-average generators with it; "
        "ROADMAP item 4 deletes it with the permutation-matrix API",
    "projections.generate_group":
        "bench/workloads.py calls it and BENCHMARK.json's per-layer metrics name it; "
        "ROADMAP item 4 deletes it with the permutation-matrix API",
    "projections.average_projection":
        "bench/workloads.py calls it and BENCHMARK.json's per-layer metrics name it; "
        "ROADMAP item 4 deletes it with the permutation-matrix API",
    "haar_system.haar_coefficients":
        "BENCHMARK.json's per-layer metrics name it, so bench/ requires it to exist; "
        "the span check calls the sparse transform under it directly",
    "haar_system.DyadicVector.inner":
        "BENCHMARK.json's per-layer metrics name it; the tests' dense span "
        "oracle is built from it",
    "recursive.TensorVector.materialize":
        "bench/workloads.py flattens the witness vectors with it, and "
        "BENCHMARK.json's per-layer metrics name it",
    "recursive.WitnessResult.c_vector":
        "bench/workloads.py materializes C_r from it to cross-check the DP norm",
    "recursive.WitnessResult.sum_vector":
        "bench/workloads.py materializes C_r + A_r from it to cross-check the DP norm",
}


def _scan(package: Path):
    """(defs, mentions, attributes).  defs maps "module.name" and
    "module.Class.member" to the spelling of every public top-level function
    and class and every public method, property and annotated field of a
    public class.
    mentions maps a spelling to the owners that mention it as a plain name
    or an attribute, attributes to those that mention it as an attribute.
    An owner is the innermost top-level definition, method or field around
    the mention ("module.name" or "module.Class.member"), or the bare module
    name for top-level code."""
    defs = {}
    mentions = {}
    attributes = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = module
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{module}.{node.name}"
                if not node.name.startswith("_"):
                    defs[owner] = node.name
            parts = [(owner, node)]
            if isinstance(node, ast.ClassDef):
                parts = [(owner, sub) for sub in node.decorator_list + node.bases]
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        name = member.name
                    elif (isinstance(member, ast.AnnAssign)
                          and isinstance(member.target, ast.Name)):
                        name = member.target.id
                    else:
                        parts.append((owner, member))
                        continue
                    key = f"{owner}.{name}"
                    if not (node.name.startswith("_") or name.startswith("_")):
                        defs[key] = name
                    parts.append((key, member))
            for who, part in parts:
                for sub in ast.walk(part):
                    if isinstance(sub, ast.Name):
                        mentions.setdefault(sub.id, set()).add(who)
                    elif isinstance(sub, ast.Attribute):
                        mentions.setdefault(sub.attr, set()).add(who)
                        attributes.setdefault(sub.attr, set()).add(who)
    return defs, mentions, attributes


def _class_of(owner: str):
    """"module.Class" for a member owner "module.Class.member", else None."""
    return owner.rsplit(".", 1)[0] if owner.count(".") == 2 else None


def _users(key, spelling, mentions, attributes, unused):
    """Owners other than key itself (or, for a class, its members) that
    mention its spelling and are neither unused nor members of an unused
    class."""
    seen = attributes if _class_of(key) else mentions
    return {who for who in seen.get(spelling, set())
            if who != key and _class_of(who) != key
            and who not in unused and _class_of(who) not in unused}


def _unused(defs, mentions, attributes, kept) -> list[str]:
    """Public definitions mentioned only by themselves or by other unused
    ones; the kept names count as used."""
    unused: set[str] = set()
    while True:
        dead = {key for key, spelling in defs.items()
                if key not in unused and key not in kept
                and not _users(key, spelling, mentions, attributes, unused)}
        if not dead:
            return sorted(unused)
        unused |= dead


def test_every_public_name_is_used_in_the_package():
    unused = _unused(*_scan(PACKAGE), KEPT)
    assert not unused, f"public names no claim, command or library path uses: {unused}"


def test_kept_names_exist_and_are_otherwise_unused():
    # an entry whose name is gone, or that library code now calls, is stale
    defs, mentions, attributes = _scan(PACKAGE)
    for key in KEPT:
        assert key in defs, key
        assert not _users(key, defs[key], mentions, attributes, set()), key


def _read_args(func) -> set[str]:
    """The `args.<name>` attributes a command function reads."""
    tree = ast.parse(inspect.getsource(func))
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
            and sub.value.id == "args"}


def test_every_cli_option_is_read_by_its_command():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    unread = []
    for name, parser in subparsers.choices.items():
        read = _read_args(parser.get_default("func"))
        unread += [f"{name} {'/'.join(action.option_strings)}"
                   for action in parser._actions
                   if action.dest != "help" and action.dest not in read]
    assert not unread, f"options no command reads: {unread}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_members(paths) -> dict[str, set[str]]:
    """Underscore member name -> the modules whose classes define it as a
    method, property or annotated field."""
    members: dict[str, set[str]] = {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if _is_private(name):
                    members.setdefault(name, set()).add(path.stem)
    return members


def _foreign_private_uses(path: Path, members: dict[str, set[str]]) -> list[str]:
    """`from .m import _x`, `m._x` and `obj._x` in one file, m any freelip
    module other than the file's own and, for `obj._x`, _x a class member
    (members, from _private_members) that only other modules define, as
    sorted "m._x" strings."""
    own = path.stem
    modules = {}                        # local name -> freelip module it is bound to
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "freelip"
                                                  or (node.module or "").startswith("freelip.")):
            module = (node.module or "").removeprefix("freelip").lstrip(".")
            for alias in node.names:
                if not module:
                    modules[alias.asname or alias.name] = alias.name
                elif module != own and _is_private(alias.name):
                    found.append(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _is_private(node.attr)):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in modules:
            if modules[node.value.id] != own:
                found.append(f"{modules[node.value.id]}.{node.attr}")
        elif node.attr in members and own not in members[node.attr]:
            found += [f"{module}.{node.attr}" for module in members[node.attr]]
    return sorted(found)


def test_no_module_uses_another_modules_private_names(tmp_path):
    paths = sorted(PACKAGE.glob("*.py"))
    members = _private_members(paths)
    uses = {path.name: _foreign_private_uses(path, members) for path in paths}
    assert not {name: found for name, found in uses.items() if found}
    # the scan sees every form, and not a module's own or public names
    other = tmp_path / "other.py"
    other.write_text("class Other:\n    _field: int\n    def _method(self):\n        pass\n")
    probe = tmp_path / "probe.py"
    probe.write_text("from . import projections\nfrom .cyclespace import _tree, tree\n"
                     "from .probe import _own\n"
                     "class Mine:\n    def _mine(self):\n        return self._mine\n"
                     "def f(x):\n    return projections._rows(), projections.rows(), _own(),"
                     " x._method(), x._field, x._mine, x._unknown\n")
    assert _foreign_private_uses(probe, _private_members([other, probe])) == [
        "cyclespace._tree", "other._field", "other._method", "projections._rows"]


def test_functions_import_only_numpy_or_scipy():
    # freelip's own modules load in milliseconds and no import cycle needs a
    # late import; only the minimal-projection LP's numpy and scipy load late
    late = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                else:
                    continue
                late += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name.split(".")[0] not in ("numpy", "scipy")]
    assert not late, f"function-level imports: {late}"
