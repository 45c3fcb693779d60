"""CI public-surface check: every public ``src/repro`` name must have a caller.

A public top-level ``def``, ``class`` or assignment in ``src/repro``, and a
public method or property of a public top-level class, stays only while
``src/repro``, ``benchmarks``, ``scripts``, ``examples`` or ``perfbench``
refers to it outside its own definition.  A reference is a
``Name`` or ``Attribute`` node with that identifier, or a ``from ... import``
of it in a file other than an ``__init__.py``; a package re-export is not a
caller, and neither is a test.  Names are matched by identifier, not by
module, so the check can miss a dead name that shares an identifier with a
live one but never flags a live name.

A name that has to stay without a caller goes in ``ALLOWLIST`` with the
reason in a comment.  Run from the repository root (CI does)::

    python scripts/check_public_surface.py [ROOT]

``ROOT`` defaults to the repository this script lives in.  The check exits
1 and names every unreferenced definition.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from collections import defaultdict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The package whose public names are checked.
PACKAGE = pathlib.Path("src/repro")

#: Directories whose references count as callers, the package included.
CALLER_ROOTS = (
    PACKAGE,
    pathlib.Path("benchmarks"),
    pathlib.Path("scripts"),
    pathlib.Path("examples"),
    pathlib.Path("perfbench"),
)

#: ``module.path:name`` / ``module.path:Class.method`` entries exempt from
#: the check, each with the reason it stays.
ALLOWLIST: frozenset = frozenset(
    {
        # perfbench/layertrace.py traces it by name (a string, not a reference).
        "repro.annealing.sampler:QuantumAnnealerSimulator.sample_ising",
        # perfbench/layertrace.py traces it by name in the class's own vars().
        "repro.annealing.svmc:SpinVectorMonteCarloBackend.run",
        # Per-shard registry snapshots are how pool workers will return
        # telemetry under --workers (ROADMAP, observability).
        "repro.telemetry.registry:MetricsRegistry.snapshot",
    }
)


def _python_files(directory: pathlib.Path) -> list:
    return sorted(directory.rglob("*.py")) if directory.is_dir() else []


def _assigned_names(node: ast.stmt) -> list:
    """The plain names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names.extend(e.id for e in elements if isinstance(e, ast.Name))
    return names


def _public_methods(node: ast.ClassDef) -> list:
    """``(qualified name, name, first_line, last_line)`` of a class's public methods.

    Properties are methods here; a definition's lines include its decorators.
    """
    return [
        (
            f"{node.name}.{item.name}",
            item.name,
            min([item.lineno] + [decorator.lineno for decorator in item.decorator_list]),
            item.end_lineno,
        )
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def public_definitions(root: pathlib.Path) -> list:
    """``(path, qualified name, name, first_line, last_line)`` of every checked name."""
    definitions = []
    for path in _python_files(root / PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = _assigned_names(node)
            public = [name for name in names if not name.startswith("_")]
            definitions.extend(
                (path, name, name, node.lineno, node.end_lineno) for name in public
            )
            if isinstance(node, ast.ClassDef) and public:
                definitions.extend((path, *method) for method in _public_methods(node))
    return definitions


def references(root: pathlib.Path) -> dict:
    """Map each referenced identifier to the ``(path, line)`` places it occurs."""
    places = defaultdict(list)
    for directory in CALLER_ROOTS:
        for path in _python_files(root / directory):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            is_init = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    places[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    places[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.ImportFrom) and not is_init:
                    for alias in node.names:
                        places[alias.name].append((path, node.lineno))
    return places


def unreferenced(root: pathlib.Path) -> list:
    """``module:name`` of every public definition with no caller outside itself."""
    places = references(root)
    missing = []
    for path, qualified, name, first, last in public_definitions(root):
        module = ".".join(path.relative_to(root / PACKAGE.parent).with_suffix("").parts)
        key = f"{module}:{qualified}"
        if key in ALLOWLIST:
            continue
        if not any(p != path or not first <= line <= last for p, line in places.get(name, ())):
            missing.append(key)
    return missing


def main(argv: list) -> int:
    root = pathlib.Path(argv[0]).resolve() if argv else REPO_ROOT
    missing = unreferenced(root)
    for key in missing:
        print(f"public name with no caller outside tests: {key}")
    if missing:
        print(
            f"{len(missing)} unreferenced public name(s): delete them, move a test-only "
            "fixture under tests/, or make the name private",
            file=sys.stderr,
        )
        return 1
    print("public surface check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
