"""Every public module-level function and class of freelip, every public
method, property and annotated (dataclass) field of its public classes,
and every option of its command line is used by the package itself: by a
claim, a command or another library path.  No module uses another
module's underscore names, neither its module-level names nor the members
of its classes, and no function imports a module other than numpy or
scipy.

The scan reads the source with `ast`.  A name counts as used when some
other definition, or a module's top-level code, mentions it.  A top-level
name is resolved by module: a plain name refers to it in its own module
and where `from .m import name` binds it, and an attribute only as
`m.name` through a module bound by `from . import m`.  A member counts
when its spelling is read as an attribute of anything but a module; the
scan has no types, so members are matched by spelling alone.  Its own
body (for a class, its members too) and `__init__` exports do not count.
A definition that only unused definitions mention is unused too, so the
scan removes them until nothing changes.  A member of the same spelling
as another, or a local of the same spelling as a top-level name of its
module, can hide an unused definition, never invent one.
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


def _imports(tree):
    """(names, modules) bound by a module's imports from freelip: names maps
    the local name of each `from .m import name` to "m.name", modules the
    local name of each `from . import m` to m."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.split(".")[0] == "freelip":
            module = module.removeprefix("freelip").lstrip(".")
            for alias in node.names:
                if module:
                    names[alias.asname or alias.name] = f"{module}.{alias.name}"
                else:
                    modules[alias.asname or alias.name] = alias.name
    return names, modules


def _scan(package: Path):
    """(defs, mentions, attributes).  defs maps "module.name" and
    "module.Class.member" to the spelling of every public top-level function
    and class and every public method, property and annotated field of a
    public class.
    mentions maps "module.name" to the owners that refer to that top-level
    name (as resolved in the module docstring), attributes a spelling to
    the owners that read it as an attribute of anything but a module.
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
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _imports(tree)
        names.update((node.name, f"{module}.{node.name}") for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in tree.body:
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
                        if sub.id in names:
                            mentions.setdefault(names[sub.id], set()).add(who)
                    elif isinstance(sub, ast.Attribute):
                        if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                            target = f"{modules[sub.value.id]}.{sub.attr}"
                            mentions.setdefault(target, set()).add(who)
                        else:
                            attributes.setdefault(sub.attr, set()).add(who)
    return defs, mentions, attributes


def _class_of(owner: str):
    """"module.Class" for a member owner "module.Class.member", else None."""
    return owner.rsplit(".", 1)[0] if owner.count(".") == 2 else None


def _users(key, spelling, mentions, attributes, unused):
    """Owners other than key itself (or, for a class, its members) that
    refer to it (a member: read its spelling as an attribute) and are
    neither unused nor members of an unused class."""
    seen = attributes.get(spelling, set()) if _class_of(key) else mentions.get(key, set())
    return {who for who in seen
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


def test_the_scan_resolves_top_level_names_by_module(tmp_path):
    # b.solve shares its spelling with Net.solve, which run calls, and with
    # run's argument; neither refers to b.solve, so it is unused
    (tmp_path / "a.py").write_text(
        "from . import b as bee\nfrom .b import helper\n"
        "class Net:\n    def solve(self):\n        return helper()\n"
        "def run(net, solve=None):\n    return net.solve(), bee.used(), solve, own()\n"
        "def own():\n    pass\n"
        "RESULT = run(Net())\n")
    (tmp_path / "b.py").write_text(
        "def solve():\n    pass\ndef helper():\n    pass\ndef used():\n    pass\n")
    assert _unused(*_scan(tmp_path), set()) == ["b.solve"]


def test_kept_names_exist_and_are_otherwise_unused():
    # an entry whose name is gone, or that library code now calls, is stale
    defs, mentions, attributes = _scan(PACKAGE)
    for key in KEPT:
        assert key in defs, key
        assert not _users(key, defs[key], mentions, attributes, set()), key


def _is_exception(base: ast.expr, families) -> bool:
    name = ast.unparse(base).split(".")[-1]
    return name in families or name.endswith(("Error", "Exception"))


def test_errors_defines_exactly_the_four_families():
    # no caller tells the checks of one family apart by type, so no check
    # has a class of its own, and no other module defines an exception
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: [ast.unparse(base) for base in node.bases]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"FreelipError": ["Exception"], "ValidationError": ["FreelipError"],
                       "SolverFailure": ["FreelipError"], "ResourceLimit": ["FreelipError"]}
    others = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ClassDef)
              and any(_is_exception(base, classes) for base in node.bases)]
    assert not others, f"exception classes outside freelip.errors: {others}"


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
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = _imports(tree)
    found = [target for target in names.values()
             if target.split(".")[0] != own and _is_private(target.split(".")[1])]
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
