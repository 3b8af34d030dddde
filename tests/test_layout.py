"""Source layout: eigendecompositions are computed in spd_core only.

Every other module reaches spectral calculus through the kernels in
``spd_core`` (``_spectral``, ``_whiten``, ``_exp_at``) or its public
operations, so a change of eigensolver or batching touches one module.
"""

from __future__ import annotations

import ast
from pathlib import Path

EIGENSOLVERS = {"eigh", "eigvalsh"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdmeans"


def _eigensolver_references(path: Path) -> list[str]:
    """``<file>:<line>`` of every attribute access or import naming an eigensolver."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in EIGENSOLVERS for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_eigensolvers_only_in_spd_core():
    found = {path.name: _eigensolver_references(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("spd_core.py"), "the scan finds no eigensolver even in spd_core"
    offenders = [ref for refs in found.values() for ref in refs]
    assert offenders == [], f"eigh/eigvalsh referenced outside spd_core: {offenders}"
