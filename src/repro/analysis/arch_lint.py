"""Architecture-layering lint: the import DAG, enforced.

The simulator is layered — ``isa`` at the bottom, then the machine
(``frontend``/``core``), TEA on top of the machine, and driver code
(``harness``, CLI) above everything.  Each layer may import only from
layers of *strictly lower* rank (or from itself); ``memory`` and
``obs`` are leaf utility layers everything may use.

This module checks that property statically with :mod:`ast`: it parses
every file under ``src/repro``, collects the **module-level** imports
(function-level lazy imports are exempt — they are the sanctioned
escape hatch for intentional inversions, e.g. the pipeline
constructing its TEA controller or ``repro.analysis.chains`` driving
the harness for its runtime oracle), resolves relative imports, and
reports any edge that points sideways or upward.

Run it as a module (CI does)::

    python -m repro.analysis.arch_lint        # exit 1 on violation

or via :func:`check_layering` from the tier-1 test
``tests/test_arch_lint.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Layer name -> rank.  A module-level import must target a strictly
#: lower rank (same-layer imports are always fine).  ``""`` is the
#: top of the stack: ``repro/__init__.py`` and ``repro/__main__.py``.
LAYER_RANKS: dict[str, int] = {
    "memory": 0,
    "obs": 0,
    "isa": 1,
    "frontend": 2,
    "core": 3,
    "tea": 4,
    "runahead": 5,
    "crisp": 5,
    "analysis": 6,
    "verify": 6,
    "workloads": 7,
    "harness": 8,
    "fuzz": 9,
    "sampling": 9,
    "": 10,
}


def _layer_of(parts: tuple[str, ...]) -> str | None:
    """Layer name for a dotted module path, ``None`` if outside repro."""
    if not parts or parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


def _module_parts(root: Path, path: Path) -> tuple[tuple[str, ...], bool]:
    """Dotted parts of a source file, plus whether it is a package."""
    rel = path.relative_to(root).with_suffix("")
    parts = rel.parts
    if parts[-1] == "__init__":
        return parts[:-1], True
    return parts, False


def _module_level_imports(tree: ast.Module) -> list[ast.stmt]:
    """Import statements outside any function body.

    Conditional module-level imports (``if TYPE_CHECKING: ...``) count;
    anything inside a ``def``/``async def`` is a lazy import and exempt.
    """
    found: list[ast.stmt] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(child)
            visit(child)

    visit(tree)
    return found


def _imported_modules(
    stmt: ast.stmt, file_parts: tuple[str, ...], is_package: bool
) -> list[tuple[str, ...]]:
    """Absolute dotted parts of every module a statement imports."""
    if isinstance(stmt, ast.Import):
        return [tuple(alias.name.split(".")) for alias in stmt.names]
    assert isinstance(stmt, ast.ImportFrom)
    if stmt.level == 0:
        return [tuple((stmt.module or "").split("."))]
    # Relative: one containing package per dot (a package __init__ is
    # its own first level).  ``from . import x`` names submodules.
    package = file_parts if is_package else file_parts[:-1]
    if stmt.level > 1:
        package = package[: len(package) - (stmt.level - 1)]
    if stmt.module:
        return [package + tuple(stmt.module.split("."))]
    return [package + (alias.name,) for alias in stmt.names]


class LayeringViolation(Exception):
    """Raised by :func:`check_layering` in ``strict`` mode."""


def check_layering(src_root: Path | None = None) -> list[str]:
    """Check every file under ``src/repro``; return violation strings."""
    root = src_root or Path(__file__).resolve().parents[2]
    violations: list[str] = []
    for path in sorted((root / "repro").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        file_parts, is_package = _module_parts(root, path)
        if path.parent == root / "repro":
            src_layer = ""  # top-level module (__init__, __main__)
        else:
            src_layer = _layer_of(file_parts)
        if src_layer is None:
            continue
        src_rank = LAYER_RANKS.get(src_layer)
        if src_rank is None:
            violations.append(
                f"{path.relative_to(root)}:1: unknown layer "
                f"{src_layer!r}; add it to LAYER_RANKS with a rank"
            )
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in _module_level_imports(tree):
            for target in _imported_modules(stmt, file_parts, is_package):
                dst_layer = _layer_of(target)
                if dst_layer is None or dst_layer == src_layer:
                    continue
                dst_rank = LAYER_RANKS.get(dst_layer)
                dotted = ".".join(target)
                if dst_rank is None:
                    violations.append(
                        f"{path.relative_to(root)}:{stmt.lineno}: import "
                        f"of unknown layer {dst_layer!r} ({dotted})"
                    )
                elif dst_rank >= src_rank:
                    violations.append(
                        f"{path.relative_to(root)}:{stmt.lineno}: "
                        f"layer {src_layer or 'repro'!r} (rank {src_rank}) "
                        f"must not import {dotted} "
                        f"(layer {dst_layer!r}, rank {dst_rank}); "
                        f"use a function-level import if intentional"
                    )
    return violations


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]).resolve() if args else None
    violations = check_layering(root)
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("architecture layering: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
