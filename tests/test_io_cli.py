import json
import math

import numpy as np
import pytest

from spdmeans import MatrixSetError, SpdMatrix
from spdmeans.cli import build_parser, kinds_for_command, main, registry_listing
from spdmeans.convergence import ConvergenceTrace, TraceStep
from spdmeans.matrix_io import (
    parse_matrix_set,
    serialize_matrix_set,
    trace_to_csv,
    trace_to_json,
    write_matrix_set,
)
from tests.conftest import random_spd


def write_set(tmp_path, doc, name="set.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Matrix-set format
# ---------------------------------------------------------------------------

def test_parse_scalar_set(tmp_path):
    path = write_set(tmp_path, {"d": 1, "matrices": [[4], [9]]})
    mats = parse_matrix_set(path)
    assert len(mats) == 2
    assert mats[0].array[0, 0] == 4.0 and mats[1].array[0, 0] == 9.0


def test_parse_identity(tmp_path):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0, 0, 1]]})
    mats = parse_matrix_set(path)
    np.testing.assert_array_equal(mats[0].array, np.eye(2))


def test_parse_rejects_indefinite_with_index_and_eigenvalue(tmp_path):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0, 0, 1], [1, 2, 2, 1]]})
    with pytest.raises(MatrixSetError) as err:
        parse_matrix_set(path)
    message = str(err.value)
    assert "matrix 1" in message
    assert "-1" in message  # min eigenvalue of [[1,2],[2,1]]


def test_parse_rejects_asymmetry(tmp_path):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0.5, 0.4, 1]]})
    with pytest.raises(MatrixSetError) as err:
        parse_matrix_set(path)
    assert "asymmetry" in str(err.value)


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_parse_rejects_non_finite_entries_with_index(tmp_path, entry):
    # json.loads accepts both spellings; they must not reach the asymmetry check
    path = tmp_path / "set.json"
    path.write_text(f'{{"d": 2, "matrices": [[1, 0, 0, 1], [1, 0, 0, {entry}]]}}')
    with pytest.raises(MatrixSetError, match="matrix 1 has non-finite entries"):
        parse_matrix_set(str(path))


def test_parse_rejects_malformed(tmp_path):
    for doc in ({"matrices": [[1]]}, {"d": 0, "matrices": [[1]]},
                {"d": 2, "matrices": [[1, 2, 3]]}, {"d": 1, "matrices": []}):
        with pytest.raises(MatrixSetError):
            parse_matrix_set(write_set(tmp_path, doc))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MatrixSetError):
        parse_matrix_set(str(bad))
    with pytest.raises(MatrixSetError):
        parse_matrix_set(str(tmp_path / "missing.json"))


def test_roundtrip_is_exact(tmp_path, rng):
    mats = [random_spd(rng, 3, spread=2.0) for _ in range(4)]
    path = tmp_path / "roundtrip.json"
    write_matrix_set(mats, path)
    back = parse_matrix_set(path)
    for original, loaded in zip(mats, back):
        np.testing.assert_array_equal(original.array, loaded.array)


def test_serialize_uses_shortest_roundtrip_repr(rng):
    m = SpdMatrix([[1 / 3, 0.0], [0.0, 0.1]])
    text = serialize_matrix_set([m])
    doc = json.loads(text)
    assert doc["matrices"][0][0] == 1 / 3
    assert doc["matrices"][0][3] == 0.1


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def _demo_trace():
    steps = (TraceStep(0, None, 0.5), TraceStep(1, None, 0.01),
             TraceStep(2, None, 1e-6))
    return ConvergenceTrace(steps=steps, converged=True, iterations_used=2,
                            order_estimate=1.99)


def test_trace_json_schema():
    doc = json.loads(trace_to_json(_demo_trace()))
    assert set(doc) == {"steps", "order_estimate", "converged"}
    assert doc["steps"][0] == {"t": 0, "error": 0.5}
    assert doc["converged"] is True
    assert doc["order_estimate"] == 1.99


def test_trace_csv_rendering():
    text = trace_to_csv(_demo_trace())
    lines = text.strip().splitlines()
    assert lines[0] == "t,error"
    assert lines[1] == "0,0.5"
    assert "# order_estimate,1.99" in lines
    assert "# converged,true" in lines


# ---------------------------------------------------------------------------
# CLI: registry and parsing
# ---------------------------------------------------------------------------

def test_registry_contents():
    listing = registry_listing()
    for kind in ("arithmetic", "geometric", "harmonic", "power:p", "agm", "ahm",
                 "lem", "qpower:p", "limpalfia:p", "karcher", "holbrook",
                 "circumcenter", "median", "alm", "bmp"):
        assert kind in listing
    assert "ahm" in kinds_for_command("scalar")
    assert "ahm" in kinds_for_command("pair")
    assert "karcher" in kinds_for_command("multi")


def test_main_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "limpalfia:p" in out


def test_main_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_main_bad_flag_is_input_error(capsys):
    assert main(["scalar", "--kind", "agm", "--x", "1"]) == 1  # missing --y


def test_unknown_kind_lists_registry(capsys):
    code = main(["scalar", "--kind", "frobnicate", "--x", "1", "--y", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "agm" in err and "power:p" in err


# ---------------------------------------------------------------------------
# CLI: scalar command
# ---------------------------------------------------------------------------

def test_scalar_agm_trivial(capsys):
    assert main(["scalar", "--kind", "agm", "--x", "1", "--y", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == 1.0


def test_scalar_power_kind_with_parameter(capsys):
    assert main(["scalar", "--kind", "power:0", "--x", "4", "--y", "9"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(6.0)


def test_scalar_json_output(capsys):
    assert main(["scalar", "--kind", "agm", "--x", "1", "--y", "2",
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "scalar" and doc["kind"] == "agm"
    assert doc["result"] == pytest.approx(1.4567910310469069, rel=1e-12)
    assert doc["converged"] is True


def test_scalar_trace_written(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["scalar", "--kind", "ahm", "--x", "4", "--y", "9",
                 "--trace", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text())
    assert doc["converged"] is True
    assert doc["steps"][0]["t"] == 0
    trace_csv = tmp_path / "trace.csv"
    assert main(["scalar", "--kind", "ahm", "--x", "4", "--y", "9",
                 "--trace", str(trace_csv)]) == 0
    assert trace_csv.read_text().startswith("t,error")
    capsys.readouterr()


def test_scalar_nonconvergence_exit_code(tmp_path, capsys):
    trace_path = tmp_path / "partial.json"
    code = main(["scalar", "--kind", "agm", "--x", "1", "--y", "1000",
                 "--max-iterations", "2", "--trace", str(trace_path)])
    assert code == 2
    doc = json.loads(trace_path.read_text())
    assert doc["converged"] is False
    assert len(doc["steps"]) == 3


def test_scalar_invalid_input_exit_code(capsys):
    assert main(["scalar", "--kind", "agm", "--x", "-1", "--y", "2"]) == 1
    assert main(["scalar", "--kind", "agm", "--x", "1", "--y", "2",
                 "--tolerance", "-1"]) == 1


def test_non_finite_parameters_exit_code(capsys):
    assert main(["scalar", "--kind", "power:nan", "--x", "2", "--y", "3"]) == 1
    assert main(["sample", "--experiment", "clt", "--count", "20", "--trials", "3",
                 "--sigma", "nan", "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("kind", ["arithmetic", "geometric", "harmonic", "power:0.5", "agm", "ahm"])
def test_scalar_infinite_input_exit_code(kind, capsys):
    assert main(["scalar", "--kind", kind, "--x", "inf", "--y", "2"]) == 1
    assert main(["scalar", "--kind", kind, "--x", "2", "--y", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


# ---------------------------------------------------------------------------
# CLI: pair and multi commands
# ---------------------------------------------------------------------------

def test_pair_ahm_scalar_set(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 1, "matrices": [[4], [9]]})
    assert main(["pair", "--kind", "ahm", "--inputs", path]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(6.0, rel=1e-10)


def test_pair_needs_two_matrices(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 1, "matrices": [[4]]})
    assert main(["pair", "--kind", "ahm", "--inputs", path]) == 1


def test_pair_parametric_kinds(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0, 0, 4], [9, 0, 0, 16]]})
    assert main(["pair", "--kind", "qpower:1", "--inputs", path,
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["result"], [[5.0, 0.0], [0.0, 10.0]], atol=1e-12)
    # commuting case: the power mean acts on the eigenvalues,
    # M_{1/2}(1, 9) = 4 and M_{1/2}(4, 16) = 9
    assert main(["pair", "--kind", "limpalfia:0.5", "--inputs", path,
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["result"], [[4.0, 0.0], [0.0, 9.0]], rtol=1e-10)


def test_pair_rejected_matrix_set(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0, 0, 1], [1, 2, 2, 1]]})
    assert main(["pair", "--kind", "ahm", "--inputs", path]) == 1
    err = capsys.readouterr().err
    assert "matrix 1" in err and "-1" in err


def test_multi_karcher_forced_nonconvergence(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 1, "matrices": [[1], [4], [16]]})
    trace_path = tmp_path / "partial.csv"
    code = main(["multi", "--kind", "karcher", "--max-iterations", "1",
                 "--inputs", path, "--trace", str(trace_path)])
    assert code == 2
    text = trace_path.read_text()
    assert text.startswith("t,error")
    assert "# converged,false" in text


def test_multi_karcher_scalar_set(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 1, "matrices": [[1], [4], [16]]})
    assert main(["multi", "--kind", "karcher", "--inputs", path]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(4.0, rel=1e-9)


def test_multi_recursive_kinds(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 1, "matrices": [[1], [4], [16]]})
    for kind in ("alm", "bmp"):
        assert main(["multi", "--kind", kind, "--inputs", path]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(4.0, rel=1e-9)


def test_multi_csv_matrix_output(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0, 0, 4], [9, 0, 0, 16]]})
    assert main(["multi", "--kind", "holbrook", "--max-iterations", "500",
                 "--inputs", path, "--output", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2
    top = [float(v) for v in rows[0].split(",")]
    assert top[0] == pytest.approx(3.0, rel=1e-2)


# ---------------------------------------------------------------------------
# CLI: sample and bench commands
# ---------------------------------------------------------------------------

def test_sample_lln_json(capsys):
    assert main(["sample", "--experiment", "lln", "--dimension", "2",
                 "--scale", "0.2", "--count", "200", "--seed", "0",
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "lln"
    assert doc["counts"][-1] == 200
    assert max(doc["residual_at_center"]) <= 1e-12


def test_sample_lln_without_seeds_is_input_error(capsys):
    assert main(["sample", "--experiment", "lln", "--num-seeds", "0",
                 "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err


def test_sample_clt_json(capsys):
    assert main(["sample", "--experiment", "clt", "--count", "200",
                 "--trials", "100", "--mu", "0.3", "--sigma", "0.5",
                 "--seed", "1", "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "clt"
    assert doc["analytic_expectation"] == pytest.approx(math.exp(0.3), rel=1e-12)
    assert doc["empirical_clt_variance"] == pytest.approx(
        doc["analytic_clt_variance"], rel=0.5)


def test_bench_agm(capsys):
    assert main(["bench", "--kind", "agm", "--trials", "5", "--seed", "0",
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 5
    assert 1.7 <= doc["mean_order"] <= 2.3


def test_bench_matrix_ahm(capsys):
    assert main(["bench", "--kind", "ahm", "--dimension", "3", "--trials", "3",
                 "--seed", "0", "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1.7 <= doc["mean_order"] <= 2.3


def test_sample_lln_center_file_sets_dimension(tmp_path, capsys):
    center = write_set(tmp_path, {"d": 2, "matrices": [[2, 0.5, 0.5, 1]]})
    assert main(["sample", "--experiment", "lln", "--center", center,
                 "--scale", "0.2", "--count", "20", "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 2
    assert max(doc["residual_at_center"]) <= 1e-12
    two = write_set(tmp_path, {"d": 1, "matrices": [[1], [2]]}, name="two.json")
    assert main(["sample", "--center", two, "--count", "20"]) == 1
    assert "exactly one matrix" in capsys.readouterr().err


def test_sample_report_csv_and_human(capsys):
    args = ["sample", "--experiment", "clt", "--count", "50", "--trials", "20",
            "--seed", "2"]
    assert main(args + ["--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(args + ["--output", "csv"]) == 0
    header, values = capsys.readouterr().out.strip().splitlines()
    assert header.split(",") == list(doc)
    assert values.split(",")[header.split(",").index("n")] == "50"
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{key}: {value}" for key, value in doc.items()]
    assert main(["sample", "--experiment", "lln", "--dimension", "2", "--scale", "0.2",
                 "--count", "20", "--output", "csv"]) == 0
    header, values = capsys.readouterr().out.strip().splitlines()
    assert header.split(",") == ["experiment", "dimension", "scale"]
    assert values == "lln,2,0.2"


@pytest.mark.parametrize("kind", ["bmp", "alm"])
def test_bench_recursive_kinds(kind, capsys):
    assert main(["bench", "--kind", kind, "--trials", "2", "--seed", "0",
                 "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == kind and doc["dimension"] == 3 and doc["trials"] == 2
    assert all(n >= 1 for n in doc["iterations"])


@pytest.mark.parametrize("argv", [
    ["scalar", "--kind", "agm", "--x", "1", "--y", "1000"],
    ["pair", "--kind", "ahm"],
    ["multi", "--kind", "karcher"],
    ["multi", "--kind", "alm"],
])
def test_tolerance_flag_reaches_the_iteration(argv, tmp_path, capsys):
    if argv[0] == "pair":
        argv = argv + ["--inputs", write_set(tmp_path, {"d": 2, "matrices": [
            [2, 0.3, 0.3, 1], [1, -0.2, -0.2, 3]]})]
    elif argv[0] == "multi":
        argv = argv + ["--inputs", write_set(tmp_path, {"d": 2, "matrices": [
            [2, 0.3, 0.3, 1], [1, -0.2, -0.2, 3], [1.5, 0.1, 0.1, 0.5]]})]
    paths = tmp_path / "loose.json", tmp_path / "default.json"
    assert main(argv + ["--tolerance", "1e-4", "--trace", str(paths[0])]) == 0
    assert main(argv + ["--trace", str(paths[1])]) == 0
    capsys.readouterr()
    loose, default = (json.loads(p.read_text())["steps"] for p in paths)
    assert loose[-1]["error"] <= 1e-4
    # the looser tolerance stops the iteration earlier than the default one
    assert len(loose) < len(default)


def test_env_variable_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDMEANS_MAX_ITERS", "2")
    code = main(["scalar", "--kind", "agm", "--x", "1", "--y", "1000"])
    assert code == 2  # env-provided cap forces non-convergence
    # explicit flag beats the environment
    code = main(["scalar", "--kind", "agm", "--x", "1", "--y", "1000",
                 "--max-iterations", "64"])
    assert code == 0
    monkeypatch.setenv("SPDMEANS_TOL", "not-a-number")
    assert main(["scalar", "--kind", "agm", "--x", "1", "--y", "2"]) == 1
    capsys.readouterr()


def test_env_seed_matches_flag_seed(capsys, monkeypatch):
    args = ["sample", "--experiment", "clt", "--count", "50", "--trials", "20",
            "--output", "json"]
    assert main(args + ["--seed", "7"]) == 0
    by_flag = capsys.readouterr().out
    monkeypatch.setenv("SPDMEANS_SEED", "7")
    assert main(args) == 0
    by_env = capsys.readouterr().out
    assert by_flag == by_env


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["scalar", "--kind", "agm", "--x", "1", "--y", "2"])
    assert args.command == "scalar"


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # main reuses one parser; options given in one call must not leak into the next.
    args = ["scalar", "--kind", "agm", "--x", "2", "--y", "5"]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    assert main(args + ["--output", "json", "--max-iterations", "1"]) == 2
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == fresh


def test_pair_nonconvergence_exit_code(tmp_path, capsys):
    path = write_set(tmp_path, {"d": 2, "matrices": [[1, 0, 0, 4], [9, 0, 0, 16]]})
    assert main(["pair", "--kind", "ahm", "--inputs", path,
                 "--max-iterations", "1"]) == 2
    capsys.readouterr()


def test_every_registered_kind_runs(tmp_path, capsys):
    scalar_kinds = {"arithmetic": [], "geometric": [], "harmonic": [],
                    "power:0.5": [], "agm": [], "ahm": []}
    for kind in scalar_kinds:
        assert main(["scalar", "--kind", kind, "--x", "2", "--y", "5"]) == 0
    pair_path = write_set(tmp_path, {"d": 2, "matrices": [[2, 0.3, 0.3, 1],
                                                          [1, -0.2, -0.2, 3]]})
    for kind in ("ahm", "lem", "qpower:0.5", "limpalfia:0.5"):
        assert main(["pair", "--kind", kind, "--inputs", pair_path]) == 0
    multi_path = write_set(tmp_path, {"d": 1, "matrices": [[1], [2], [8]]})
    for kind in ("karcher", "holbrook", "circumcenter", "median", "alm", "bmp"):
        assert main(["multi", "--kind", kind, "--inputs", multi_path,
                     "--max-iterations", "200"]) == 0
    capsys.readouterr()


def test_module_entry_point_subprocess():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spdmeans

    # the child imports the package from where this process found it
    root = str(Path(spdmeans.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spdmeans", "scalar", "--kind", "ahm",
         "--x", "4", "--y", "9"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(6.0, rel=1e-12)
