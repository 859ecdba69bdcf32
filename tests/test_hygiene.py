"""Source hygiene that needs no linter: every name ``src/``, ``tests/``
or ``tools/`` imports is used, ``src/`` imports nothing beyond numpy
and the standard library, and every public name in ``src/`` (a class's
methods, properties and dataclass fields included) is read by ``src/``
or ``perfbench/``, and every function the benchmark's tracer wraps is
there."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of each name ``path`` imports but never reads. A
    name listed in the module's ``__all__`` counts as read; ``from
    __future__`` imports are compiler directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for folder in ("src", "tests", "tools")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)


def top_level_imports(path):
    """(line, package) of each absolute import in ``path``; a relative
    import stays inside the package and is left out."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_runs_on_numpy_alone():
    allowed = {"cellshare", "numpy"} | set(sys.stdlib_module_names)
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, package)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, package in top_level_imports(path)
             if package not in allowed]
    assert not found, "src/ imports beyond numpy and the standard " \
        "library:\n" + "\n".join(found)


# Public names kept although nothing in src/ or perfbench/ reads them.
KEEP_UNREAD = {
    "q_forward": "criterion 08's greedy reference",
    "loss_and_gradients": "criterion 03's gradient check",
    "central_net": "ctde's learner, inspected by tests and artifact_digests",
}


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``
    (plain or through the module)."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in decorators)


def public_names(path):
    """(line, name, member) of each public module-level function, class
    or constant ``path`` defines (``member`` false), and of each public
    method, property and dataclass field of its classes (``member``
    true). NamedTuple fields are left out: the CSV writers read them by
    position."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name) \
                        and _is_dataclass(node):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield item.lineno, name, True
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets
                     if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield node.lineno, name, False


def names_read(path):
    """(names, attributes): every name ``path`` loads or imports, and
    every name it reads as an attribute."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def test_no_unread_public_names():
    """Library code only tests reach should go. A read in the defining
    module counts: a public helper its own module calls is in use. A
    method, property or dataclass field counts as read only when read as
    an attribute: a local variable of the same name does not use it."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    names, attributes = set(), set()
    for path in sources + sorted((ROOT / "perfbench").glob("*.py")):
        path_names, path_attributes = names_read(path)
        names |= path_names
        attributes |= path_attributes
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in sources
             for line, name, member in public_names(path)
             if name not in attributes
             and (member or name not in names)
             and name not in KEEP_UNREAD]
    assert not found, "public but never read in src/ or perfbench/:\n" \
        + "\n".join(found)
    stale = sorted(set(KEEP_UNREAD) & (names | attributes))
    assert not stale, "kept as unread but read: %s" % ", ".join(stale)


def tracer_targets():
    """The (module, attribute) pairs of ``TARGETS`` in
    ``perfbench/tracing.py``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) \
                and getattr(node.target, "id", None) == "TARGETS":
            return [(module, attr) for module, attr, _span
                    in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_benchmark_tracer_targets_resolve():
    """A rename or deletion of a traced function fails here, not in the
    benchmark's traced run. A method is looked up in its class's
    ``__dict__``, as the tracer patches it."""
    missing = []
    for module_name, attr in tracer_targets():
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        found = vars(owner).get(name) if owner is not None else None
        if not callable(found):
            missing.append("%s.%s" % (module_name, attr))
    assert not missing, "traced but not defined: " + ", ".join(missing)
