"""Source hygiene that needs no linter: every imported name is used, and
every public name in ``src/`` is read by ``src/`` or ``perfbench/``."""

import ast
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
             for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)


# Public names kept although nothing in src/ or perfbench/ reads them.
KEEP_UNREAD = {
    "sum_rate_metric": "the quantity criterion 9 checks",
    "q_forward": "criterion 07's greedy reference",
    "loss_and_gradients": "criterion 03's gradient check",
    "td_targets": "the bootstrap target the tests check by hand",
}


def public_names(path):
    """(line, name) of each public module-level function, class or
    constant ``path`` defines, and of each public method of its
    classes."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))
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
                yield node.lineno, name


def names_read(path):
    """Every name ``path`` loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_public_names():
    """Library code only tests reach should go. A read in the defining
    module counts: a public helper its own module calls is in use."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    read = set().union(*(names_read(path) for path in
                         sources + sorted((ROOT / "perfbench").glob("*.py"))))
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in sources for line, name in public_names(path)
             if name not in read and name not in KEEP_UNREAD]
    assert not found, "public but never read in src/ or perfbench/:\n" \
        + "\n".join(found)
    stale = sorted(set(KEEP_UNREAD) & read)
    assert not stale, "kept as unread but read: %s" % ", ".join(stale)
