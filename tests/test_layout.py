"""Source layout: one module owns each cross-cutting rule.

Eigendecompositions are computed in spd_core only, through numpy or
LAPACK directly: every other module reaches spectral calculus through the
kernels in ``spd_core``
(``_spectral`` and the base-relative ``_Frame``, each taking a ``(d, d)``
array or an ``(n, d, d)`` stack) or its public operations, so a change of
eigensolver or batching touches one module.  The inverse root has one
home: only ``spd_core._Frame`` inverts a matrix, full or triangular
(``np.linalg.inv`` or LAPACK ``?gesv``, ``?getri``, ``?trtri``), and
only it factors one (``np.linalg.cholesky`` or LAPACK ``?potrf``); a
module that needs a Cholesky frame calls ``_Frame.cholesky``.  The factor
a geodesic endpoint caches for its frame (``SpdMatrix._factor``) is set
in spd_core only, so a cached frame is always the one its sandwich built.  The
trace contract lives in ``convergence``: only ``TraceRecorder`` decides
``converged`` and raises the budget-cap NonConvergenceError.  The four
sequential walks step through a moving ``_Frame`` (one generalized
eigensolve, LAPACK ``dsygvd``, per step), and the recursive means
step all their tuples at once through a stacked ``_Frame`` (one eigh per
level and round), not through the two-eigh ``geodesic`` or
``riemannian_distance``.
Matrices become an ``(n, d, d)`` stack in one place, ``spd_core._stack``,
which validates them first through ``_check_dimensions``, the one
dimension check: the n-matrix entry points call it once and hand its
array to the kernels, and the pair entry points that need no stack call
the check alone.
Weighted terms are added left to right in one place,
``spd_core._ordered_sum``, the only user of ``np.cumsum``.  A
NonConvergenceError propagates from where it is raised to the CLI, the
only module that catches it.  The only module-level scipy import is
``scipy.linalg.lapack`` in spd_core; scipy.integrate is imported inside
``scalar_means.elliptic_k``, so neither ``import spdmeans`` nor a CLI
request loads another scipy subpackage.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


def test_ordered_sums_only_in_spd_core_ordered_sum():
    found = [ref.rsplit(":", 1)[0] for path in sorted(PACKAGE.glob("*.py"))
             for ref in _references(path, lambda name: name == "cumsum")]
    assert found == ["spd_core.py:_ordered_sum"], f"np.cumsum outside spd_core._ordered_sum: {found}"


#: scipy's triangular solves; LAPACK's inverses and inverting solves
#: (``?gesv``, ``?getri``, ``?trtri``) and Cholesky factorizations
#: (``?potrf``) are matched by their suffix.
TRIANGULAR_INVERSES = {"solve_triangular", "cho_solve"}
LAPACK_INVERSES = ("gesv", "getri", "trtri")
LAPACK_FACTORIZATIONS = ("potrf",)


def _through_linalg(callee: ast.expr, name: str) -> bool:
    """Whether the call is ``<...>.linalg.<name>`` or ``linalg.<name>``, so
    ``np.linalg.cholesky`` matches and ``_Frame.cholesky`` does not."""
    owner = getattr(callee, "value", None)
    return getattr(callee, "attr", None) == name and (
        isinstance(owner, ast.Attribute) and owner.attr == "linalg"
        or isinstance(owner, ast.Name) and owner.id == "linalg")


def _inverts(callee: ast.expr, name: str) -> bool:
    return (_through_linalg(callee, "inv") or name.endswith(LAPACK_INVERSES)
            or name in TRIANGULAR_INVERSES)


def _factors(callee: ast.expr, name: str) -> bool:
    return _through_linalg(callee, "cholesky") or name.endswith(LAPACK_FACTORIZATIONS)


def _calls(matches) -> dict[str, list[int]]:
    """Lines of every call in the package whose callee and name satisfy
    ``matches``, keyed by ``<file>:<enclosing top-level class or function>``."""
    found: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                if matches(callee, name):
                    key = f"{path.name}:{getattr(top, 'name', '<module>')}"
                    found.setdefault(key, []).append(node.lineno)
    return found


def test_inverse_root_only_in_frame():
    found = _calls(_inverts)
    assert found.pop("spd_core.py:_Frame", None), "the scan finds no inverse root even in _Frame"
    assert found == {}, f"a matrix is inverted outside spd_core._Frame: {found}"


def test_factorizations_only_in_frame():
    found = _calls(_factors)
    assert found.pop("spd_core.py:_Frame", None), "the scan finds no factorization even in _Frame"
    assert found == {}, f"a matrix is factored outside spd_core._Frame: {found}"


#: The slot where an SpdMatrix caches the factor of its frame, and the calls
#: that set or delete an attribute by name.
FACTOR_SLOT = "_factor"
ATTRIBUTE_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _factor_writes(path: Path) -> list[str]:
    """``<file>:<top-level definition>:<line>`` of every assignment to or
    deletion of an attribute named ``FACTOR_SLOT``, directly or through
    ``ATTRIBUTE_SETTERS`` with the name spelled out."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                writes = node.attr == FACTOR_SLOT and isinstance(node.ctx, (ast.Store, ast.Del))
            elif isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                writes = name in ATTRIBUTE_SETTERS and any(
                    isinstance(arg, ast.Constant) and arg.value == FACTOR_SLOT for arg in node.args)
            else:
                continue
            if writes:
                found.append(f"{path.name}:{getattr(top, 'name', '<module>')}:{node.lineno}")
    return found


def test_cached_factor_is_set_only_in_spd_core():
    found = {path.name: _factor_writes(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("spd_core.py"), "the scan finds no write of the cached factor even in spd_core"
    offenders = [ref for refs in found.values() for ref in refs]
    assert offenders == [], f"the cached factor of an SpdMatrix is set outside spd_core: {offenders}"


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


#: Every scipy import in the package: (file, enclosing top-level definition,
#: module).  scipy.integrate loads optimize, sparse, special, spatial, fft
#: and more, so it waits for the one function that needs it.
SCIPY_IMPORTS = [
    ("scalar_means.py", "elliptic_k", "scipy.integrate"),
    ("spd_core.py", "<module>", "scipy.linalg.lapack"),
]


def _scipy_imports(path: Path) -> list[tuple[str, str, str]]:
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                modules = [f"scipy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(path.name, getattr(top, "name", "<module>"), module)
                      for module in modules if module.split(".")[0] == "scipy"]
    return found


def test_scipy_integrate_is_imported_only_inside_elliptic_k():
    found = [ref for path in sorted(PACKAGE.glob("*.py")) for ref in _scipy_imports(path)]
    assert found == SCIPY_IMPORTS, f"scipy imported outside the allowed places: {found}"


#: Run in a fresh interpreter: import the package, serve one request of
#: every CLI command kind, report the scipy subpackages loaded, then call
#: elliptic_k.
_COLD_START_SCRIPT = """
import contextlib, io, json, sys
import spdmeans
from spdmeans.cli import kinds_for_command, main

pair, multi = sys.argv[1:3]
requests = [["scalar", "--kind", kind.replace(":p", ":0.5"), "--x", "2", "--y", "3"]
            for kind in kinds_for_command("scalar")]
requests += [["pair", "--kind", kind.replace(":p", ":0.5"), "--inputs", pair]
             for kind in kinds_for_command("pair")]
requests += [["multi", "--kind", kind, "--inputs", multi, "--max-iterations", "50"]
             for kind in kinds_for_command("multi")]
requests += [["sample", "--experiment", "clt", "--count", "20", "--trials", "5"],
             ["sample", "--experiment", "lln", "--dimension", "2", "--count", "20",
              "--num-seeds", "2"]]
def subpackages():
    return sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")})

loaded = {"import spdmeans": [0, subpackages()]}
for argv in requests:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv[:3])] = [code, subpackages()]
print(json.dumps(loaded))
print(spdmeans.elliptic_k(0.5).hex())
print(json.dumps("scipy.integrate" in sys.modules))
"""

#: What scipy.linalg.lapack brings: scipy's private modules, scipy.linalg
#: and scipy.version.
COLD_START_SUBPACKAGES = {"linalg", "version"}


def test_cold_start_loads_only_scipy_linalg(tmp_path):
    pair, multi = tmp_path / "pair.json", tmp_path / "multi.json"
    pair.write_text(json.dumps({"d": 2, "matrices": [[2, 0.5, 0.5, 1], [1, -0.2, -0.2, 3]]}))
    multi.write_text(json.dumps({"d": 2, "matrices": [[2, 0.5, 0.5, 1], [1, -0.2, -0.2, 3],
                                                      [1.5, 0, 0, 0.5]]}))
    result = subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, str(pair), str(multi)],
                            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                            capture_output=True, text=True, timeout=120, check=True)
    loaded, k_hex, integrate_loaded = result.stdout.splitlines()
    for request, (code, subpackages) in json.loads(loaded).items():
        assert code == 0, f"{request} exited {code}: {result.stderr}"
        public = {name for name in subpackages if not name.startswith("_")}
        assert public <= COLD_START_SUBPACKAGES, f"{request} loaded scipy {sorted(public)}"
    # the quadrature oracle still loads scipy.integrate and gives the same K(1/2)
    assert json.loads(integrate_loaded) is True
    assert float.fromhex(k_hex) == float.fromhex("0x1.af8d55d323f7ap+0")
