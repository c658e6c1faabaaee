"""Every ``repro`` import inside ``src/repro`` resolves.

The lint job's mypy runs with ``ignore_missing_imports``, which silences
an import it cannot resolve, and many imports here are deferred into
function bodies.  A function-level import of a deleted or renamed module
would therefore pass lint and fail only when its branch runs.  This test
walks every module's syntax tree, function bodies included, and imports
each ``repro.*`` module and name it finds.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file:line, module, name)`` for every ``repro`` import; ``name``
    is ``None`` for a plain ``import repro.x``."""
    found: list[tuple[str, str, str | None]] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE.parent)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = "%s:%d" % (relative, getattr(node, "lineno", 0))
            if isinstance(node, ast.Import):
                found.extend(
                    (where, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "%s: relative import" % where
                if (node.module or "").split(".")[0] == "repro":
                    found.extend(
                        (where, node.module, alias.name) for alias in node.names
                    )
    return found


def _unresolved(where: str, module: str, name: str | None) -> str | None:
    try:
        loaded = importlib.import_module(module)
    except ImportError as exc:
        return "%s: import %s fails (%s)" % (where, module, exc)
    if name is None or name == "*" or hasattr(loaded, name):
        return None
    try:  # a submodule not yet imported through its package
        importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return "%s: %s has no name %r" % (where, module, name)
    return None


def test_every_repro_import_resolves():
    imports = _repro_imports()
    # The walk reaches function bodies: lazy imports are most of the risk.
    assert len(imports) > 300
    failures = [
        message
        for message in (_unresolved(*entry) for entry in imports)
        if message is not None
    ]
    assert not failures, "\n".join(failures)
