import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from spintomo import VERTEX_ORDER
from spintomo.cli import main


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(
        resources.files("spintomo")
        .joinpath("schemas/output_document.schema.json")
        .read_text()
    )
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity tokens are refused."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def run_doc(capsys, validator, *args):
    code, out, err = run_cli(capsys, *args)
    doc = strict_json(out)
    validator.validate(doc)
    return code, doc, err


def matrix_from_doc(rows):
    return np.array(
        [[complex(cell["re"], cell["im"]) for cell in row] for row in rows]
    )


def test_p_table_document(capsys, validator):
    code, doc, _ = run_doc(capsys, validator, "p-table", "--state", "up_x")
    assert code == 0
    assert doc["command"] == "p-table"
    assert doc["admissibility"]["passed"] is True
    entries = {(e["c"], e["b"], e["a"]): complex(e["re"], e["im"]) for e in doc["p_table"]}
    assert entries[(1, 1, 1)] == pytest.approx(0.25 + 0.25j, abs=1e-15)
    assert entries[(-1, 1, 1)] == pytest.approx(0.0, abs=1e-15)
    assert sum(entries.values()) == pytest.approx(1.0, abs=1e-14)


def test_p_table_oracle_flag_matches(capsys, validator):
    _, doc_a, _ = run_doc(capsys, validator, "p-table", "--state", "bloch=0.1,0.2,0.3")
    _, doc_b, _ = run_doc(
        capsys, validator, "p-table", "--state", "bloch=0.1,0.2,0.3", "--oracle"
    )
    for ea, eb in zip(doc_a["p_table"], doc_b["p_table"]):
        assert ea["re"] == pytest.approx(eb["re"], abs=1e-14)
        assert ea["im"] == pytest.approx(eb["im"], abs=1e-14)


def test_state_specifications(capsys, validator):
    specs = [
        "up_y",
        "bloch=0.0,0.25,-0.3",
        "rho=0.5,-0.5j,0.5j,0.5",
        "w-axes=0.5,0.5,0.9",
    ]
    for spec in specs:
        code, doc, _ = run_doc(capsys, validator, "p-table", "--state", spec)
        assert code == 0, spec
        rho = matrix_from_doc(doc["state"]["rho"])
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_w_single_direction(capsys, validator):
    code, doc, _ = run_doc(
        capsys,
        validator,
        "w",
        "--state",
        "up_z",
        "--theta",
        "1.0471975511965976",
        "--phi",
        "0.25",
    )
    assert code == 0
    (tomo,) = doc["tomograms"]
    assert tomo["w_plus"] == pytest.approx(0.75, abs=1e-12)
    assert tomo["w_plus"] + tomo["w_minus"] == pytest.approx(1.0, abs=1e-14)


def test_w_psi_has_no_effect(capsys, validator):
    base = ["w", "--state", "up_x", "--theta", "0.8", "--phi", "1.3"]
    _, doc_a, _ = run_doc(capsys, validator, *base)
    _, doc_b, _ = run_doc(capsys, validator, *base, "--psi", "2.9")
    (ta,), (tb,) = doc_a["tomograms"], doc_b["tomograms"]
    assert ta["w_plus"] == pytest.approx(tb["w_plus"], abs=1e-14)
    assert ta["w_minus"] == pytest.approx(tb["w_minus"], abs=1e-14)


def test_w_grid_and_axes(capsys, validator):
    code, doc, _ = run_doc(
        capsys, validator, "w", "--state", "up_y", "--grid", "3", "--axes"
    )
    assert code == 0
    assert len(doc["tomograms"]) == 9
    assert doc["w_axes"]["wy_plus"] == pytest.approx(1.0, abs=1e-14)
    assert doc["w_axes"]["wx_plus"] == pytest.approx(0.5, abs=1e-14)


def test_w_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "w", "--state", "up_z", "--theta", "0", "--phi", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,phi,w_plus,w_minus"
    theta, phi, w_plus, w_minus = (float(x) for x in lines[1].split(","))
    assert w_plus == pytest.approx(1.0)
    assert w_minus == pytest.approx(0.0)


def test_csv_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "p-table", "--state", "up_z", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "p-table", "--state", "no_such_state")[0] == 2
    assert run_cli(capsys, "p-table", "--state", "bloch=1,2")[0] == 2
    assert run_cli(capsys, "p-table", "--state", "rho=a,b,c,d")[0] == 2
    assert run_cli(capsys, "w", "--state", "up_z")[0] == 2
    assert run_cli(capsys, "w", "--state", "up_z", "--theta", "1")[0] == 2
    assert (
        run_cli(capsys, "w", "--state", "up_z", "--theta", "1", "--phi", "0", "--grid", "2")[0]
        == 2
    )
    assert run_cli(capsys, "sweep", "--trials", "0")[0] == 2
    assert main(["definitely-not-a-command"]) == 2


def test_verify_empty_document_exit_2(capsys, tmp_path):
    payload = tmp_path / "empty.json"
    payload.write_text("{}")
    code, _, err = run_cli(capsys, "verify", "--input", str(payload))
    assert code == 2
    assert "p_table" in err


def test_nonphysical_inputs_exit_3(capsys):
    code, out, err = run_cli(capsys, "p-table", "--state", "bloch=0.6,0,0")
    assert code == 3
    assert out == ""
    assert "error" in err
    assert run_cli(capsys, "p-table", "--state", "w-axes=1,1,1")[0] == 3
    assert run_cli(capsys, "p-table", "--state", "rho=0.9,0.4,0.4,0.1")[0] == 3


def test_reconstruct_from_p_round_trip(capsys, validator, tmp_path):
    _, doc, _ = run_doc(capsys, validator, "p-table", "--state", "bloch=0.1,-0.2,0.3")
    source = matrix_from_doc(doc["state"]["rho"])
    payload = tmp_path / "table.json"
    payload.write_text(json.dumps({"p_table": doc["p_table"]}))
    code, rec_doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", "from-p", "--input", str(payload)
    )
    assert code == 0
    assert rec_doc["validation"]["passed"] is True
    assert np.abs(matrix_from_doc(rec_doc["rho"]) - source).max() < 1e-12


def test_reconstruct_from_w_axes(capsys, validator, tmp_path):
    payload = tmp_path / "axes.json"
    payload.write_text(json.dumps({"w_axes": {"wx_plus": 0.5, "wy_plus": 0.5, "wz_plus": 1.0}}))
    code, doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", "from-w-axes", "--input", str(payload)
    )
    assert code == 0
    rec = matrix_from_doc(doc["rho"])
    assert np.abs(rec - np.array([[1.0, 0.0], [0.0, 0.0]])).max() < 1e-14


def test_reconstruct_inadmissible_table_exits_3(capsys, validator, tmp_path):
    entries = []
    for c in (1, -1):
        for b in (1, -1):
            for a in (1, -1):
                entries.append({"c": c, "b": b, "a": a, "re": 0.5, "im": 0.0})
    payload = tmp_path / "bad.json"
    payload.write_text(json.dumps({"p_table": entries}))
    code, doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", "from-p", "--input", str(payload)
    )
    assert code == 3
    assert doc["error"]["type"] == "AdmissibilityError"
    assert "rho" not in doc


def test_reconstruct_integral_from_state(capsys, validator, tmp_path):
    payload = tmp_path / "integral.json"
    payload.write_text(json.dumps({"j": 0.5, "state": "up_y"}))
    code, doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", "from-w-integral", "--input", str(payload)
    )
    assert code == 0
    rec = matrix_from_doc(doc["rho"])
    assert np.abs(rec - np.array([[0.5, -0.5j], [0.5j, 0.5]])).max() < 1e-12
    assert doc["j"] == 0.5


def test_reconstruct_integral_from_rho_matrix(capsys, validator, tmp_path):
    from spintomo import random_density_j

    rho = random_density_j(3, 1, seed=3)[0]
    rows = [[{"re": z.real, "im": z.imag} for z in row] for row in rho]
    payload = tmp_path / "spin1.json"
    payload.write_text(json.dumps({"j": 1, "rho": rows}))
    code, doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", "from-w-integral", "--input", str(payload)
    )
    assert code == 0
    assert np.abs(matrix_from_doc(doc["rho"]) - rho).max() < 1e-12


def _grid_samples(rho, j):
    from spintomo import build_quadrature, m_values, w_callable_from_density

    family = w_callable_from_density(rho)
    grid = build_quadrature(j, oversample=2)
    return [
        {"m": m1, "theta": theta, "phi": phi, "w": family(m1, theta, phi)}
        for m1 in m_values(j)
        for theta in grid.theta_nodes
        for phi in grid.phi_nodes
    ]


def test_reconstruct_integral_from_samples(capsys, validator, tmp_path):
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    payload = tmp_path / "samples.json"
    payload.write_text(json.dumps({"j": 0.5, "samples": _grid_samples(rho, 0.5)}))
    code, doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", "from-w-integral", "--input", str(payload)
    )
    assert code == 0
    assert np.abs(matrix_from_doc(doc["rho"]) - rho).max() < 1e-12


def test_reconstruct_integral_non_finite_sample_exit_2(capsys, tmp_path):
    samples = _grid_samples(np.eye(2) / 2, 0.5)
    samples[5]["w"] = float("nan")
    payload = tmp_path / "nan.json"
    payload.write_text(json.dumps({"j": 0.5, "samples": samples}))
    code, out, err = run_cli(
        capsys, "reconstruct", "--mode", "from-w-integral", "--input", str(payload)
    )
    assert code == 2
    assert out == ""
    assert "non-finite w" in err


def test_reconstruct_integral_duplicate_sample_exit_2(capsys, tmp_path):
    samples = _grid_samples(np.eye(2) / 2, 0.5)
    samples.append(dict(samples[7], w=0.9))
    payload = tmp_path / "duplicate.json"
    payload.write_text(json.dumps({"j": 0.5, "samples": samples}))
    code, out, err = run_cli(
        capsys, "reconstruct", "--mode", "from-w-integral", "--input", str(payload)
    )
    assert code == 2
    assert out == ""
    assert "duplicate sample" in err


def test_reconstruct_integral_missing_samples_exit_2(capsys, tmp_path):
    payload = tmp_path / "short.json"
    payload.write_text(
        json.dumps({"j": 0.5, "samples": [{"m": 0.5, "theta": 0.1, "phi": 0.0, "w": 1.0}]})
    )
    code, _, err = run_cli(
        capsys, "reconstruct", "--mode", "from-w-integral", "--input", str(payload)
    )
    assert code == 2
    assert "grid" in err


def test_reconstruct_bad_file_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "reconstruct", "--mode", "from-p", "--input", str(missing))[0] == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli(capsys, "reconstruct", "--mode", "from-p", "--input", str(garbled))[0] == 2


def test_verify_table_alone(capsys, validator, tmp_path):
    _, doc, _ = run_doc(capsys, validator, "p-table", "--state", "up_x")
    payload = tmp_path / "table.json"
    payload.write_text(json.dumps({"p_table": doc["p_table"]}))
    code, vdoc, _ = run_doc(capsys, validator, "verify", "--input", str(payload))
    assert code == 0
    assert vdoc["passed"] is True
    names = [c["name"] for c in vdoc["checks"]]
    assert names == [
        "table-total",
        "table-marginal-imag",
        "table-marginal-range",
        "table-density",
        "table-redundancy",
    ]


def test_verify_matched_pair(capsys, validator, tmp_path):
    state = "bloch=0.15,-0.1,0.2"
    _, tdoc, _ = run_doc(capsys, validator, "p-table", "--state", state)
    _, wdoc, _ = run_doc(
        capsys, validator, "w", "--state", state, "--theta", "0", "--phi", "0", "--axes"
    )
    payload = tmp_path / "pair.json"
    payload.write_text(
        json.dumps({"p_table": tdoc["p_table"], "w_axes": wdoc["w_axes"]})
    )
    code, vdoc, _ = run_doc(capsys, validator, "verify", "--input", str(payload))
    assert code == 0
    assert vdoc["passed"] is True
    by_name = {c["name"]: c for c in vdoc["checks"]}
    assert by_name["triple-physicality"]["passed"] is True
    assert by_name["radon-consistency"]["deviation"] < 1e-14


def test_verify_perturbed_table_exits_3(capsys, validator, tmp_path):
    _, doc, _ = run_doc(capsys, validator, "p-table", "--state", "up_z")
    entries = doc["p_table"]
    entries[0]["re"] += 0.1
    payload = tmp_path / "perturbed.json"
    payload.write_text(json.dumps({"p_table": entries}))
    code, vdoc, _ = run_doc(capsys, validator, "verify", "--input", str(payload))
    assert code == 3
    assert vdoc["passed"] is False
    failed = {c["name"] for c in vdoc["checks"] if not c["passed"]}
    assert "table-total" in failed
    assert "table-redundancy" in failed


def test_sweep(capsys, validator):
    code, doc, _ = run_doc(capsys, validator, "sweep", "--trials", "25", "--seed", "11")
    assert code == 0
    assert doc["passed"] is True
    assert all(v < 1e-12 for v in doc["max_deviations"].values())


def test_output_flag_writes_file(capsys, validator, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(
        capsys, "p-table", "--state", "up_z", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    validator.validate(doc)


def test_documents_are_byte_stable(capsys, tmp_path):
    payload = tmp_path / "axes.json"
    payload.write_text(
        json.dumps({"w_axes": {"wx_plus": 0.7, "wy_plus": 0.55, "wz_plus": 0.4}})
    )
    invocations = [
        ("p-table", "--state", "up_y"),
        ("w", "--state", "unpolarized", "--grid", "2", "--axes"),
        ("verify", "--input", str(payload)),
        ("sweep", "--trials", "5", "--seed", "3"),
    ]
    for args in invocations:
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_byte_stability_across_processes():
    cmd = [sys.executable, "-m", "spintomo", "p-table", "--state", "up_y"]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith(b"\n")


def _integral_input(tmp_path, obj):
    payload = tmp_path / "integral.json"
    payload.write_text(json.dumps(obj))
    return ("reconstruct", "--mode", "from-w-integral", "--input", str(payload))


def test_reconstruct_integral_bad_spin_exit_2(capsys, tmp_path):
    for j in (0.3, -1, float("inf")):
        code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": j, "state": "up_z"}))
        assert code == 2
        assert out == ""
        assert "'j' must be a non-negative multiple of 1/2" in err


def test_reconstruct_integral_ragged_rho_exit_2(capsys, tmp_path):
    cell = {"re": 0.5, "im": 0.0}
    nan_cell = {"re": float("nan"), "im": 0.0}
    for rows in ([[cell, cell], [cell]], [[cell, cell]], [1, 2], [[cell, nan_cell], [cell, cell]]):
        code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": 0.5, "rho": rows}))
        assert code == 2
        assert out == ""
        assert "'rho'" in err


def test_reconstruct_integral_oversample_zero_exit_2(capsys, tmp_path):
    args = _integral_input(tmp_path, {"j": 0.5, "state": "up_z"})
    code, out, err = run_cli(capsys, *args, "--oversample", "0")
    assert code == 2
    assert out == ""
    assert "--oversample" in err


@pytest.mark.parametrize("flag", ["--theta", "--phi", "--psi"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["doc", "csv"])
def test_w_non_finite_angle_exit_2(capsys, flag, value, fmt):
    angles = {"--theta": "1.0", "--phi": "0.5", "--psi": "0.0", flag: value}
    args = [f"{name}={angle}" for name, angle in angles.items()]
    code, out, err = run_cli(capsys, "w", "--state", "up_z", *args, "--format", fmt)
    assert code == 2
    assert out == ""
    assert f"{flag} must be finite" in err


def test_non_finite_tol_exit_2(capsys):
    for value in ("nan", "inf"):
        code, out, err = run_cli(capsys, "p-table", "--state", "up_z", "--tol", value)
        assert code == 2
        assert out == ""
        assert "--tol must be finite" in err


def test_non_finite_input_documents_exit_2(capsys, validator, tmp_path):
    # Python's json module reads NaN and Infinity tokens; they must not get through.
    _, doc, _ = run_doc(capsys, validator, "p-table", "--state", "up_x")
    table = doc["p_table"]
    table[1]["im"] = float("nan")
    triple = {"wx_plus": 0.5, "wy_plus": float("inf"), "wz_plus": 0.5}
    cases = [
        ("verify", {"p_table": table}, "not finite"),
        ("from-p", {"p_table": table}, "not finite"),
        ("verify", {"w_axes": triple}, "'w_axes' values must be finite"),
        ("from-w-axes", {"w_axes": triple}, "'w_axes' values must be finite"),
    ]
    for verb, obj, message in cases:
        payload = tmp_path / "non_finite.json"
        payload.write_text(json.dumps(obj))
        args = ("verify",) if verb == "verify" else ("reconstruct", "--mode", verb)
        code, out, err = run_cli(capsys, *args, "--input", str(payload))
        assert code == 2
        assert out == ""
        assert message in err


def test_overflowing_input_exit_2(capsys, tmp_path):
    huge = [{"c": c, "b": b, "a": a, "re": 1e308, "im": 0.0} for c, b, a in VERTEX_ORDER]
    payload = tmp_path / "huge.json"
    payload.write_text(json.dumps({"p_table": huge}))
    code, out, err = run_cli(capsys, "verify", "--input", str(payload))
    assert code == 2
    assert out == ""
    assert "non-finite" in err
