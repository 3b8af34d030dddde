"""Matrix-set file format and convergence-trace serialization.

Matrix sets are JSON documents {"d": int, "matrices": [[row-major floats]]}.
Numbers serialize through Python's shortest round-trip float representation
(17 significant digits when needed), so serialize -> parse is bit-exact.
Traces serialize as {"steps": [{"t": ..., "error": ...}], "order_estimate":
..., "converged": ...} or as CSV with a t,error header.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .convergence import ConvergenceTrace
from .errors import DefinitenessError, MatrixSetError, ShapeError
from .spd_core import SpdMatrix, _stack

#: Relative asymmetry beyond which an input matrix is rejected instead of
#: silently symmetrized.
ASYMMETRY_TOLERANCE = 1e-12


def matrix_set_from_document(doc: dict) -> tuple[SpdMatrix, ...]:
    """Validate a parsed matrix-set document into a nonempty tuple of
    matrices of dimension ``d``."""
    if not isinstance(doc, dict) or "d" not in doc or "matrices" not in doc:
        raise MatrixSetError('matrix set must be an object with "d" and "matrices"')
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:  # bool is an int
        raise MatrixSetError(f'"d" must be a positive integer, got {d!r}')
    rows = doc["matrices"]
    if not isinstance(rows, list) or not rows:
        raise MatrixSetError('"matrices" must be a nonempty list')
    out = []
    for index, flat in enumerate(rows):
        try:
            arr = np.asarray(flat, dtype=float).reshape(d, d)
        except (TypeError, ValueError) as exc:
            raise MatrixSetError(
                f"matrix {index}: expected {d * d} row-major numbers: {exc}"
            ) from exc
        if not np.all(np.isfinite(arr)):
            raise MatrixSetError(f"matrix {index} has non-finite entries")
        scale = float(np.abs(arr).max()) or 1.0
        asym = float(np.abs(arr - arr.T).max())
        if asym > ASYMMETRY_TOLERANCE * scale:
            raise MatrixSetError(
                f"matrix {index}: asymmetry {asym:.3g} exceeds tolerance "
                f"{ASYMMETRY_TOLERANCE * scale:.3g}"
            )
        try:
            out.append(SpdMatrix(arr))
        except DefinitenessError as exc:
            raise MatrixSetError(
                f"matrix {index} is not positive definite "
                f"(min eigenvalue {exc.min_eigenvalue:.6g})"
            ) from exc
        except ShapeError as exc:
            raise MatrixSetError(f"matrix {index}: {exc}") from exc
    return tuple(out)


def parse_matrix_set(path: str | Path) -> tuple[SpdMatrix, ...]:
    """Read and validate a matrix-set JSON file.

    Rejects unparsable documents, wrong entry counts, non-finite entries,
    asymmetry beyond tolerance, and non-PD matrices, naming the offending
    matrix index.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixSetError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixSetError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_set_from_document(doc)


def serialize_matrix_set(matrices: Sequence[SpdMatrix]) -> str:
    """Matrix-set JSON text with round-trip-exact floats; raises ShapeError
    if the matrices do not share one dimension."""
    mats = list(matrices)
    if not mats:
        raise MatrixSetError("cannot serialize an empty matrix set")
    stack = _stack(mats)
    doc = {"d": stack.shape[-1], "matrices": stack.reshape(len(mats), -1).tolist()}
    return json.dumps(doc)


def write_matrix_set(matrices, path: str | Path) -> None:
    Path(path).write_text(serialize_matrix_set(matrices) + "\n")


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def trace_to_json_dict(trace: ConvergenceTrace) -> dict:
    return {
        "steps": [{"t": s.step, "error": s.error} for s in trace.steps],
        "order_estimate": trace.order_estimate,
        "converged": trace.converged,
    }


def trace_to_json(trace: ConvergenceTrace) -> str:
    return json.dumps(trace_to_json_dict(trace))


def trace_to_csv(trace: ConvergenceTrace) -> str:
    """CSV rendering: a t,error table followed by summary comment lines."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "error"])
    for s in trace.steps:
        writer.writerow([s.step, repr(s.error)])
    order = "" if trace.order_estimate is None else repr(trace.order_estimate)
    buf.write(f"# order_estimate,{order}\n")
    buf.write(f"# converged,{str(trace.converged).lower()}\n")
    return buf.getvalue()


def write_trace(trace: ConvergenceTrace, path: str | Path) -> None:
    """Write a trace as JSON or CSV, chosen by the file extension."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(trace_to_csv(trace))
    else:
        path.write_text(trace_to_json(trace) + "\n")
