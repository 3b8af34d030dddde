"""Source layout: one module owns each cross-cutting rule.

Eigendecompositions are computed in spd_core only, through numpy or
LAPACK directly: every other module reaches spectral calculus through the
kernels in ``spd_core``
(``_spectral`` and the base-relative ``_Frame``, each taking a ``(d, d)``
array or an ``(n, d, d)`` stack) or its public operations, so a change of
eigensolver or batching touches one module.  The inverse root has one
home: only ``spd_core._Frame`` inverts a matrix, full or triangular
(``np.linalg.inv`` or LAPACK ``?gesv``, ``?getri``, ``?trtri``), or
assembles U diag(lambda)^{-1} U^T.  The trace contract lives in
``convergence``: only ``TraceRecorder`` decides ``converged`` and raises
the budget-cap NonConvergenceError.  The four sequential walks step
through a moving ``_Frame`` (one eigh per step), and the recursive means
step all their tuples at once through a stacked ``_Frame`` (one eigh per
level and round), not through the two-eigh ``geodesic`` or
``riemannian_distance``.
Matrices become an ``(n, d, d)`` stack in one place, ``spd_core._stack``,
which validates them first: the n-matrix entry points call it once and
hand its array to the kernels.  A NonConvergenceError propagates from
where it is raised to the CLI, the only module that catches it.
"""

from __future__ import annotations

import ast
from pathlib import Path

from spdmeans.errors import NonConvergenceError

EIGENSOLVERS = {"eigh", "eigvalsh"}
#: LAPACK's symmetric eigensolvers, matched by their suffix after the type
#: letter (``dsyevd``, ``ssyev``, ...).
LAPACK_EIGENSOLVERS = ("syevd", "syev", "syevr", "sygvd")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdmeans"


def _is_eigensolver(name: str) -> bool:
    return name in EIGENSOLVERS or name[1:] in LAPACK_EIGENSOLVERS


def _references(path: Path, matches) -> list[str]:
    """``<file>:<top-level definition>:<line>`` of every attribute access or
    import whose name satisfies ``matches``."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and matches(node.attr)
                    or isinstance(node, ast.ImportFrom)
                    and any(matches(alias.name) for alias in node.names)):
                found.append(f"{path.name}:{getattr(top, 'name', '<module>')}:{node.lineno}")
    return found


def test_eigensolvers_only_in_spd_core():
    found = {path.name: _references(path, _is_eigensolver) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("spd_core.py"), "the scan finds no eigensolver even in spd_core"
    offenders = [ref for refs in found.values() for ref in refs]
    assert offenders == [], f"eigensolver referenced outside spd_core: {offenders}"



def test_matrices_are_stacked_only_by_spd_core_stack():
    found = [ref.rsplit(":", 1)[0] for path in sorted(PACKAGE.glob("*.py"))
             for ref in _references(path, lambda name: name == "stack")]
    assert found == ["spd_core.py:_stack"], f"np.stack referenced outside spd_core._stack: {found}"


#: scipy's triangular solves; LAPACK's inverses and inverting solves
#: (``?gesv``, ``?getri``, ``?trtri``) are matched by their suffix.
TRIANGULAR_INVERSES = {"solve_triangular", "cho_solve"}
LAPACK_INVERSES = ("gesv", "getri", "trtri")


def _inverse_root_calls(path: Path) -> dict[str, list[int]]:
    """Lines of every ``np.linalg.inv`` call, LAPACK inverse or solve
    (``?gesv``, ``?getri``, ``?trtri``), scipy triangular solve
    (``solve_triangular``, ``cho_solve``) and ``_assemble(..., divide=True)``
    call in the file, keyed by the enclosing top-level class or function."""
    found: dict[str, list[int]] = {}
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            inverts = (name == "inv" and isinstance(getattr(callee, "value", None), ast.Attribute)
                       and callee.value.attr == "linalg"
                       or name.endswith(LAPACK_INVERSES) or name in TRIANGULAR_INVERSES)
            divides = getattr(callee, "id", None) == "_assemble" and (
                len(node.args) > 2 or any(kw.arg == "divide" for kw in node.keywords))
            if inverts or divides:
                found.setdefault(getattr(top, "name", "<module>"), []).append(node.lineno)
    return found


def test_inverse_root_only_in_frame():
    found = {f"{path.name}:{top}": lines for path in sorted(PACKAGE.glob("*.py"))
             for top, lines in _inverse_root_calls(path).items()}
    assert found.pop("spd_core.py:_Frame", None), "the scan finds no inverse root even in _Frame"
    assert found == {}, f"a matrix is inverted outside spd_core._Frame: {found}"


#: NonConvergenceError raised outside convergence.py, by enclosing function.
#: The recursive means' stagnation raise reports roundoff stalling the
#: spread, not an exhausted budget.
NON_BUDGET_RAISES = ["multi_means.py:_recursive_mean"]


def _trace_contract_references(path: Path) -> tuple[list[str], list[str]]:
    """(``<file>:<line>`` of every ``converged=`` keyword, ``<file>:<function>``
    of every NonConvergenceError construction)."""
    converged, raises = [], []
    tree = ast.parse(path.read_text(), filename=str(path))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if any(kw.arg == "converged" for kw in node.keywords):
                converged.append(f"{path.name}:{node.lineno}")
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "NonConvergenceError":
                raises.append(f"{path.name}:{func.name}")
    return converged, raises


def test_trace_contract_only_in_convergence():
    found = {path.name: _trace_contract_references(path) for path in sorted(PACKAGE.glob("*.py"))}
    converged, raises = found.pop("convergence.py")
    assert converged and raises, "the scan finds no trace contract even in convergence"
    converged = [ref for refs, _ in found.values() for ref in refs]
    raises = [ref for _, refs in found.values() for ref in refs]
    assert converged == [], f"converged= passed outside convergence: {converged}"
    assert raises == NON_BUDGET_RAISES, f"NonConvergenceError built outside convergence: {raises}"


#: The names an except clause can catch a NonConvergenceError by.
CATCHES_NONCONVERGENCE = {cls.__name__ for cls in NonConvergenceError.__mro__} - {"object"}


def _nonconvergence_handlers(path: Path) -> list[str]:
    """``<file>:<line>`` of every except clause that is bare or names
    NonConvergenceError or one of its base classes."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and (node.type is None or any(
                getattr(name, "id", getattr(name, "attr", None)) in CATCHES_NONCONVERGENCE
                for name in ast.walk(node.type))):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_nonconvergence_propagates_to_the_cli():
    found = {path.name: _nonconvergence_handlers(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("cli.py"), "the scan finds no NonConvergenceError handler even in cli"
    offenders = [ref for refs in found.values() for ref in refs]
    assert offenders == [], f"NonConvergenceError caught outside cli: {offenders}"


#: The walks that carry a factor of their iterate, and the lockstep
#: recursion that carries the frames of its tuples, by module.
FACTORED_WALKS = {
    "stochastic.py": {"_inductive_walk"},
    "multi_means.py": {"holbrook_inductive_mean", "riemannian_circumcenter", "bacak_median",
                       "_recursive_mean"},
}
TWO_EIGH_STEPS = {"geodesic", "riemannian_distance"}


def _two_eigh_calls(path: Path, functions: set[str]) -> tuple[set[str], list[str]]:
    """(the ``functions`` defined in the file, ``<function>:<line>`` of each
    call inside them to ``geodesic`` or ``riemannian_distance``)."""
    defined, calls = set(), []
    for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(func, ast.FunctionDef) or func.name not in functions:
            continue
        defined.add(func.name)
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if name in TWO_EIGH_STEPS:
                    calls.append(f"{func.name}:{node.lineno}")
    return defined, calls


def test_walks_step_through_the_factored_walk():
    for module, functions in FACTORED_WALKS.items():
        defined, calls = _two_eigh_calls(PACKAGE / module, functions)
        assert defined == functions, f"{module} no longer defines {functions - defined}"
        assert calls == [], f"{module} walks call geodesic/riemannian_distance: {calls}"
