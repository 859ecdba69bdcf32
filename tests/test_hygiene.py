"""Source hygiene that needs no linter: every imported name is used."""

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
