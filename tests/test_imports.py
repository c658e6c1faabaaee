"""Every ``repro`` import inside ``src/repro``, the benchmark harness,
``perfbench/`` and the examples resolves.

The lint job's mypy runs with ``ignore_missing_imports``, which silences
an import it cannot resolve, and many imports here are deferred into
function bodies.  A function-level import of a deleted or renamed module
would therefore pass lint and fail only when its branch runs, and the
harness and perfbench run only in CI's bench job.  This test walks every
file's syntax tree, function bodies included, and imports each
``repro.*`` module and name it finds; it reads the files and runs none
of them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALKED = [
    ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "perfbench",
    ROOT / "examples",
]


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file:line, module, name)`` for every ``repro`` import; ``name``
    is ``None`` for a plain ``import repro.x``."""
    found: list[tuple[str, str, str | None]] = []
    for path in [path for root in WALKED for path in sorted(root.rglob("*.py"))]:
        relative = path.relative_to(ROOT)
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
    assert {where.split("/")[0] for where, _module, _name in imports} == {
        root.relative_to(ROOT).parts[0] for root in WALKED
    }
    failures = [
        message
        for message in (_unresolved(*entry) for entry in imports)
        if message is not None
    ]
    assert not failures, "\n".join(failures)


def _loads_numpy_random(modules: str) -> bool:
    """Whether importing ``modules`` in a fresh interpreter loads
    ``numpy.random``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = "import sys, %s; print('numpy.random' in sys.modules)" % modules
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return out.stdout.strip() == "True"


def test_importing_repro_leaves_numpy_random_as_numpy_left_it():
    """The Karp-Luby generator imports ``numpy.random`` on its first draw,
    so paths that never draw do not pay for it; comparing against a bare
    ``import numpy`` keeps the test true on numpy versions that load
    ``numpy.random`` eagerly."""
    baseline = _loads_numpy_random("numpy")
    assert _loads_numpy_random(
        "repro, repro.approx, repro.cli, repro.engine"
    ) == baseline
