import gc
import itertools
import json
import os
import subprocess
import sys
import threading
import warnings
from importlib import resources
from pathlib import Path

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


@pytest.mark.parametrize("state", ["up_y", "bloch=0.1,-0.2,0.3"])
@pytest.mark.parametrize(
    "where",
    [("--theta", "1.0471975511965976", "--phi", "0.25")]
    + [("--grid", str(n)) for n in (1, 2, 24, 64)],
)
def test_w_csv_rows_are_the_document_tomograms(capsys, state, where):
    argv = ("w", "--state", state, *where)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    tomograms = strict_json(out)["tomograms"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.endswith("\n")
    header, *rows = out.splitlines()
    assert header == "theta,phi,w_plus,w_minus"
    # %.17g reads back as the very float the document holds.
    assert [[float(field) for field in row.split(",")] for row in rows] == [
        [t["theta"], t["phi"], t["w_plus"], t["w_minus"]] for t in tomograms
    ]


def test_csv_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "p-table", "--state", "up_z", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["p-table", "--state", "up_z", "--oracle"], "--oracle"),
        (["w", "--state", "up_z", "--theta", "1", "--phi", "0", "--psi", "0"], "--psi"),
        (["p-table", "--state", "up_z", "--format", "doc"], "--format"),
        (["sweep", "--format", "csv"], "--format"),
    ],
    ids=["p-table-oracle", "w-psi", "p-table-format", "sweep-format"],
)
def test_flags_that_select_nothing_are_gone(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "where", [["--grid", "2"], ["--theta", "1", "--phi", "0"]], ids=["grid", "single"]
)
def test_w_axes_with_csv_exit_2(capsys, where):
    code, out, err = run_cli(
        capsys, "w", "--state", "up_x", *where, "--axes", "--format", "csv"
    )
    assert code == 2
    assert out == ""
    assert "--axes" in err and "csv" in err


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


_INADMISSIBLE = {
    "from-p": (
        {"p_table": [{"c": c, "b": b, "a": a, "re": 0.5, "im": 0.0} for c, b, a in VERTEX_ORDER]},
        "table does not describe a physical state",
        "-6.180e-01",
        (1 - 5**0.5) / 2,
    ),
    "from-w-axes": (
        {"w_axes": {"wx_plus": 1, "wy_plus": 1, "wz_plus": 1}},
        "axis probabilities do not describe a physical state",
        "-3.660e-01",
        (1 - 3**0.5) / 2,
    ),
}


@pytest.mark.parametrize("mode", sorted(_INADMISSIBLE))
def test_reconstruct_inadmissible_table_exits_3(capsys, validator, tmp_path, mode):
    obj, verdict, printed, min_eigenvalue = _INADMISSIBLE[mode]
    payload = tmp_path / "bad.json"
    payload.write_text(json.dumps(obj))
    code, doc, _ = run_doc(
        capsys, validator, "reconstruct", "--mode", mode, "--input", str(payload)
    )
    assert code == 3
    assert doc["error"] == {
        "type": "AdmissibilityError",
        "message": f"{verdict} (FAILED: hermiticity_deviation=0.000e+00 "
        f"trace_deviation=0.000e+00 min_eigenvalue={printed} (tol=1.0e-10))",
    }
    validation = doc["validation"]
    assert validation["min_eigenvalue"] == pytest.approx(min_eigenvalue, abs=1e-15)
    assert validation == dict(
        passed=False,
        hermiticity_deviation=0.0,
        trace_deviation=0.0,
        min_eigenvalue=validation["min_eigenvalue"],
    )
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


def _grid_samples(rho, j, oversample=2):
    from spintomo import build_quadrature, m_values, w_callable_from_density

    family = w_callable_from_density(rho)
    grid = build_quadrature(j, oversample=oversample)
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


def _spoil(kind, samples, index):
    """Make record ``index`` fail ``kind``; return the message for it."""
    record = samples[index]
    if kind == "malformed":
        del record["w"]
        return f"'samples' entry [{index}] needs a number 'w'"
    if kind == "projection":
        record["m"] = 0.25
        return "sample projection 0.25 is not in the spin-0.5 multiplet"
    if kind == "non-finite":
        record["w"] = float("inf")
        m, theta, phi = record["m"], record["theta"], record["phi"]
        return f"sample at (m={m!r}, theta={theta!r}, phi={phi!r}) has non-finite w=inf"
    if kind == "off-grid":
        record["theta"] += 1e-6
        theta, phi = record["theta"], record["phi"]
        return f"sample at (theta={theta!r}, phi={phi!r}) does not sit on the reconstruction grid"
    # A duplicate of the first record's cell.
    record.update(m=samples[0]["m"], theta=samples[0]["theta"], phi=samples[0]["phi"])
    m, theta, phi = record["m"], record["theta"], record["phi"]
    return f"duplicate sample at (m={m!r}, theta={theta!r}, phi={phi!r})"


_SAMPLE_FAULTS = ("malformed", "projection", "non-finite", "off-grid", "duplicate")


@pytest.mark.parametrize("first, second", itertools.permutations(_SAMPLE_FAULTS, 2))
def test_reconstruct_integral_reports_first_bad_sample(capsys, tmp_path, first, second):
    samples = json.loads(json.dumps(_grid_samples(np.eye(2) / 2, 0.5)))
    message = _spoil(first, samples, 100)
    _spoil(second, samples, 300)
    code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": 0.5, "samples": samples}))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_reconstruct_integral_sample_checks_run_in_order(capsys, tmp_path):
    # One record that fails every check after parsing: its m is reported.
    samples = json.loads(json.dumps(_grid_samples(np.eye(2) / 2, 0.5)))
    message = _spoil("projection", samples, 40)
    for kind in ("non-finite", "off-grid"):
        _spoil(kind, samples, 40)
    code, _, err = run_cli(capsys, *_integral_input(tmp_path, {"j": 0.5, "samples": samples}))
    assert code == 2
    assert err == f"error: {message}\n"
    # Missing cells come last.
    del samples[40]
    code, _, err = run_cli(capsys, *_integral_input(tmp_path, {"j": 0.5, "samples": samples}))
    assert code == 2
    assert err == (
        "error: samples do not cover the full reconstruction grid (1 of 512 cells missing)\n"
    )


def ref_w_from_samples(records, grid, j):
    """The record-by-record loop the array ingestion replaced."""
    from spintomo import m_values
    from spintomo.cli import CliError, _number

    ms = m_values(j)
    shape = (len(ms), grid.n_theta, grid.n_phi)
    values = np.empty(shape)
    seen = np.zeros(shape, dtype=bool)
    for k, sample in enumerate(records):
        m1, theta, phi, w = (
            _number(sample, field, f"'samples' entry [{k}]") for field in ("m", "theta", "phi", "w")
        )
        if m1 not in ms:
            raise CliError(f"sample projection {m1} is not in the spin-{j} multiplet")
        if not np.isfinite(w):
            raise CliError(
                f"sample at (m={m1!r}, theta={theta!r}, phi={phi!r}) has non-finite w={w!r}"
            )
        it = int(np.argmin(np.abs(grid.theta_nodes - theta)))
        ip = int(np.argmin(np.abs(grid.phi_nodes - phi)))
        if not (
            abs(grid.theta_nodes[it] - theta) <= 1e-9 and abs(grid.phi_nodes[ip] - phi) <= 1e-9
        ):
            raise CliError(
                f"sample at (theta={theta!r}, phi={phi!r}) does not sit on the "
                "reconstruction grid"
            )
        cell = (ms.index(m1), it, ip)
        if seen[cell]:
            raise CliError(f"duplicate sample at (m={m1!r}, theta={theta!r}, phi={phi!r})")
        seen[cell] = True
        values[cell] = w
    if not seen.all():
        raise CliError(
            "samples do not cover the full reconstruction grid "
            f"({np.count_nonzero(~seen)} of {seen.size} cells missing)"
        )
    return values


_RECORD_FAULTS = [
    lambda r: r.update(m=r["m"] + 0.5),
    lambda r: r.update(m=-0.0 if r["m"] == 0 else 3.0),
    lambda r: r.update(m=float("nan")),
    lambda r: r.update(w=float("-inf")),
    lambda r: r.update(theta=r["theta"] + 5e-10),
    lambda r: r.update(theta=r["theta"] - 3e-9),
    lambda r: r.update(theta=float("nan")),
    lambda r: r.update(phi=-1e-10),
    lambda r: r.update(phi=7.0),
    lambda r: r.update(phi=str(r["phi"])),
    lambda r: r.update(phi="abc"),
    lambda r: r.update(w=None),
    lambda r: r.pop("theta"),
    lambda r: r.update(m=True),
    lambda r: r.update(w=False),
    lambda r: r.update(w=10**400),
    lambda r: r.update(phi=-(10**400)),
    lambda r: r.update(m=1),
]


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_sample_ingestion_matches_record_loop(j):
    from spintomo import build_quadrature, random_density_j
    from spintomo.cli import _MATCH_TOL, CliError, _w_from_samples

    rng = np.random.default_rng(int(2 * j))
    grid = build_quadrature(j, oversample=1)
    clean = json.loads(json.dumps(_grid_samples(random_density_j(int(2 * j) + 1, 1, 3)[0], j, 1)))
    documents = [clean, clean[::-1], [clean[i] for i in rng.permutation(len(clean))], []]
    # Edges of the node search, each in a record on the phi node 0.0:
    # halfway between two nodes, _MATCH_TOL from a node and one float step
    # beyond, an azimuth just below 2pi, and an infinite theta.
    thetas, phis = grid.theta_nodes, grid.phi_nodes
    k = next(i for i, r in enumerate(clean) if r["phi"] == 0.0 and r["theta"] == thetas[1])
    for field, value in [
        ("theta", 0.5 * (thetas[1] + thetas[2])),
        ("phi", 0.5 * (phis[0] + phis[1])),
        ("phi", _MATCH_TOL),
        ("phi", np.nextafter(_MATCH_TOL, 1.0)),
        ("phi", np.nextafter(2 * np.pi, 0.0)),
        ("theta", np.inf),
        ("theta", -np.inf),
    ]:
        records = [dict(r) for r in clean]
        records[k][field] = float(value)
        documents.append(records)
    for _ in range(150):
        records = [dict(r) for r in clean]
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(len(records)))
            action = rng.integers(len(_RECORD_FAULTS) + 4)
            if action < len(_RECORD_FAULTS):
                _RECORD_FAULTS[action](records[k])
            elif action == len(_RECORD_FAULTS):
                records.insert(int(rng.integers(len(records))), dict(records[k]))
            elif action == len(_RECORD_FAULTS) + 1:
                del records[k]
            else:
                records[k] = [None, 5, "x"][action - len(_RECORD_FAULTS) - 2]
        documents.append(records)
    for records in documents:
        outcomes = []
        for ingest in (ref_w_from_samples, lambda r, g, j: _w_from_samples({"samples": r}, g, j)):
            try:
                outcomes.append(ingest(records, grid, j).tobytes())
            except CliError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


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


def test_sweep_passes_at_its_own_largest_deviation(capsys, validator):
    # Each check accepts a deviation equal to the tol.
    argv = ("sweep", "--trials", "25", "--seed", "11")
    tol = max(run_doc(capsys, validator, *argv)[1]["max_deviations"].values())
    code, doc, _ = run_doc(capsys, validator, *argv, "--tol", repr(tol))
    assert (code, doc["passed"], max(doc["max_deviations"].values())) == (0, True, tol)


def test_sweep_zero_tol_refuses_first_failing_state(capsys):
    code, out, err = run_cli(capsys, "sweep", "--trials", "3", "--seed", "3", "--tol", "0")
    assert code == 3
    assert out == ""
    assert err == (
        "error: table does not describe a physical state (FAILED: "
        "hermiticity_deviation=5.551e-17 trace_deviation=0.000e+00 "
        "min_eigenvalue=9.830e-02 (tol=0.0e+00))\n"
    )


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


# Run with ``python -c``: an atexit handler, then a refusal whose SystemExit
# is caught, then a non-physical state that ends the process.
_ENTRY_POINT_EXITS = """
import atexit, sys
from spintomo.cli import entry_point
atexit.register(lambda: print("atexit ran", flush=True))
sys.argv = ["spintomo", "w", "--state", "up_y", "--grid", "257"]
try:
    entry_point()
except SystemExit as exc:
    print("refused flag:", exc.code, flush=True)
sys.argv = ["spintomo", "p-table", "--state", "w-axes=1,1,1"]
entry_point()
"""


def test_entry_point_ends_the_process_as_main_returns(capsys, tmp_path):
    # entry_point freezes the heap before it raises SystemExit: the document,
    # piped or written with --output, is whole, each exit code and error line
    # is main's, and an atexit handler still runs, as os._exit would not allow.
    args = ("w", "--state", "up_y", "--grid", "64", "--axes")
    _, document, _ = run_cli(capsys, *args)
    _, _, refused_line = run_cli(capsys, "w", "--state", "up_y", "--grid", "257")
    _, _, nonphysical_line = run_cli(capsys, "p-table", "--state", "w-axes=1,1,1")
    assert refused_line.startswith("error: ") and nonphysical_line.startswith("error: ")
    command = [sys.executable, "-m", "spintomo", *args]
    piped = subprocess.run(command, capture_output=True, text=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, document, "")
    strict_json(piped.stdout)
    target = tmp_path / "w64.json"
    written = subprocess.run([*command, "--output", str(target)], capture_output=True, text=True)
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert target.read_text() == document
    ended = subprocess.run([sys.executable, "-c", _ENTRY_POINT_EXITS], capture_output=True, text=True)
    assert ended.returncode == 3
    assert ended.stdout == "refused flag: 2\natexit ran\n"
    assert ended.stderr == refused_line + nonphysical_line


# A process runs one verb through ``main`` and prints its exit code and the
# spintomo modules it loaded.
_MODULES_OF_A_VERB = """
import contextlib, io, json, sys
from spintomo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("spintomo"))]))
"""
_EVERY_VERB = ["spintomo", "spintomo.cli", "spintomo.errors", "spintomo.spin_core", "spintomo.tomography"]


@pytest.mark.parametrize(
    "args, extra",
    [
        (("p-table", "--state", "up_z"), ["quasiprob"]),
        (("w", "--state", "up_x", "--theta", "1", "--phi", "0.5"), []),
        (("w", "--state", "up_x", "--grid", "8"), ["general_inversion"]),
        (("reconstruct", "--mode", "from-p", "--input", "p.json"), ["quasiprob"]),
        (("reconstruct", "--mode", "from-w-axes", "--input", "w.json"), []),
        (("reconstruct", "--mode", "from-w-integral", "--input", "j.json"), ["general_inversion"]),
        (("verify", "--input", "p.json"), ["quasiprob"]),
        (("verify", "--input", "pw.json"), ["quasiprob", "radon_link"]),
        (("sweep", "--trials", "5"), ["quasiprob", "radon_link", "sampling"]),
    ],
    ids=["p-table", "w-direction", "w-grid", "from-p", "from-w-axes", "from-w-integral",
         "verify-p", "verify-both", "sweep"],
)
def test_each_verb_loads_only_its_own_modules(capsys, tmp_path, args, extra):
    _, table, _ = run_cli(capsys, "p-table", "--state", "up_x")
    p_table = json.loads(table)["p_table"]
    w_axes = {"wx_plus": 1.0, "wy_plus": 0.5, "wz_plus": 0.5}
    inputs = {
        "p.json": {"p_table": p_table},
        "w.json": {"w_axes": w_axes},
        "pw.json": {"p_table": p_table, "w_axes": w_axes},
        "j.json": {"j": 0.5, "state": "up_x"},
    }
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    command = [sys.executable, "-c", _MODULES_OF_A_VERB, *args]
    run = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path)
    assert run.stderr == ""
    code, modules = json.loads(run.stdout)
    assert code == 0
    assert modules == sorted(_EVERY_VERB + [f"spintomo.{name}" for name in extra])


def test_importing_the_package_loads_none_of_its_modules():
    code = "import spintomo, sys; print(sorted(m for m in sys.modules if m.startswith('spintomo')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "['spintomo']\n", "")


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


def test_reconstruct_integral_rho_of_the_wrong_size_exit_2(capsys, tmp_path):
    # The size is refused before the matrix is validated: the 3x3 identity
    # is not a density matrix either, but the mismatch is named.
    for rho in (np.eye(3), np.eye(3) / 3, np.eye(1)):
        rows = [[{"re": x, "im": 0.0} for x in row] for row in rho]
        code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": 0.5, "rho": rows}))
        assert code == 2
        assert out == ""
        assert err == f"error: 'rho' has dimension {len(rho)} but spin 0.5 needs 2\n"


def test_reconstruct_integral_oversample_zero_exit_2(capsys, tmp_path):
    args = _integral_input(tmp_path, {"j": 0.5, "state": "up_z"})
    code, out, err = run_cli(capsys, *args, "--oversample", "0")
    assert code == 2
    assert out == ""
    assert "--oversample" in err


@pytest.mark.parametrize("mode", ["from-p", "from-w-axes"])
@pytest.mark.parametrize("oversample", ["2", "99"])
def test_reconstruct_direct_mode_refuses_oversample(capsys, tmp_path, mode, oversample):
    # Valid for both modes, which accept it without --oversample.
    table = [{"c": c, "b": b, "a": a, "re": 0.125, "im": 0.0} for c, b, a in VERTEX_ORDER]
    triple = {"wx_plus": 0.5, "wy_plus": 0.5, "wz_plus": 0.5}
    payload = tmp_path / "input.json"
    payload.write_text(json.dumps({"p_table": table, "w_axes": triple}))
    argv = ["reconstruct", "--mode", mode, "--input", str(payload)]
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--oversample", oversample)
    assert code == 2
    assert out == ""
    assert "--oversample" in err and mode in err


@pytest.mark.parametrize("flag", ["--theta", "--phi"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["doc", "csv"])
def test_w_non_finite_angle_exit_2(capsys, flag, value, fmt):
    angles = {"--theta": "1.0", "--phi": "0.5", flag: value}
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
        ("verify", {"p_table": table}, "'p_table' entry [1] field 'im' must be finite, got nan"),
        ("from-p", {"p_table": table}, "'p_table' entry [1] field 'im' must be finite, got nan"),
        ("verify", {"w_axes": triple}, "'w_axes' field 'wy_plus' must be finite, got inf"),
        ("from-w-axes", {"w_axes": triple}, "'w_axes' field 'wy_plus' must be finite, got inf"),
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


def test_negative_tol_exit_2(capsys):
    code, out, err = run_cli(capsys, "p-table", "--state", "up_z", "--tol", "-1")
    assert code == 2
    assert out == ""
    assert "--tol must be non-negative" in err
    code, _, _ = run_cli(capsys, "p-table", "--state", "up_z", "--tol", "0")
    assert code == 0


def test_reconstruct_integral_boolean_spin_exit_2(capsys, tmp_path):
    # JSON true is a Python int; it must not pass for spin 1.
    rho = [[{"re": 1 / 3 if r == c else 0.0, "im": 0.0} for c in range(3)] for r in range(3)]
    code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": True, "rho": rho}))
    assert code == 2
    assert out == ""
    assert "'j' must be a number, got True" in err


_MULTIPLE = "a non-negative multiple of 1/2"


@pytest.mark.parametrize(
    "j, rule, shown",
    [
        ({}, "a number", "{}"),
        (True, "a number", "True"),
        (None, "a number", "None"),
        ("1", "a number", "'1'"),
        ([1], "a number", "[1]"),
        # A repr of 40 characters is shown whole, and a longer one cut short.
        ("j" * 38, "a number", repr("j" * 38)),
        (list(range(100_000)), "a number", "[0, 1, 2, 3, 4, 5, 6, 7,... (688890 characters)"),
        # An exact int beyond the float range, one whose double lies beyond
        # it, and a float whose double overflows.
        (10**400, _MULTIPLE, "100000000000000000000000... (401 characters)"),
        (int(1.5e308), _MULTIPLE, "150000000000000001646859... (309 characters)"),
        (1e308, _MULTIPLE, "1e+308"),
        (float("nan"), _MULTIPLE, "nan"),
        (-0.5, _MULTIPLE, "-0.5"),
        (26, "at most 25", "26"),
    ],
    ids=["object", "true", "null", "string", "array", "40-characters", "long-array", "10**400",
         "int(1.5e308)", "1e308", "nan", "-0.5", "26"],
)
def test_reconstruct_integral_spin_refusal_line(capsys, tmp_path, j, rule, shown):
    # Every JSON kind of 'j' is refused with exit 2 and one exact line.
    code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": j, "state": "up_z"}))
    assert (code, out, err) == (2, "", f"error: 'j' must be {rule}, got {shown}\n")


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("a grid was built for a request above its size bound")


def test_size_bounds_exit_2_before_allocating(capsys, tmp_path, monkeypatch):
    from spintomo import cli, general_inversion

    assert (cli.MAX_GRID, cli.MAX_OVERSAMPLE, cli.MAX_SPIN) == (256, 4, 25)
    monkeypatch.setattr(general_inversion, "_gauss_legendre", _refuse_allocation)
    monkeypatch.setattr(general_inversion, "build_quadrature", _refuse_allocation)
    cases = [
        (("w", "--state", "up_z", "--grid", "257"), "--grid must be at most 256"),
        (
            (*_integral_input(tmp_path, {"j": 0.5, "state": "up_z"}), "--oversample", "5"),
            "--oversample must be at most 4",
        ),
        (_integral_input(tmp_path, {"j": 25.5, "state": "up_z"}), "'j' must be at most 25"),
    ]
    for args, message in cases:
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert message in err


def test_size_bounds_accept_their_limits(capsys, validator, tmp_path):
    args = _integral_input(tmp_path, {"j": 0.5, "state": "up_x"})
    code, doc, _ = run_doc(capsys, validator, *args, "--oversample", "4")
    assert code == 0
    rho = np.diag(np.linspace(1.0, 2.0, 51)).astype(complex)
    rho /= np.trace(rho)
    cells = [[{"re": z.real, "im": z.imag} for z in row] for row in rho]
    args = _integral_input(tmp_path, {"j": 25, "rho": cells})
    code, out, _ = run_cli(capsys, *args, "--oversample", "1")
    assert code == 0
    assert np.abs(matrix_from_doc(strict_json(out)["rho"]) - rho).max() < 1e-10


def test_sweep_trials_bound_exit_2_before_sampling(capsys, monkeypatch):
    from spintomo import cli, sampling

    assert cli.MAX_TRIALS == 100_000
    monkeypatch.setattr(sampling, "random_density_matrices", _refuse_allocation)
    code, out, err = run_cli(capsys, "sweep", "--trials", "100001")
    assert (code, out) == (2, "")
    assert err == "error: --trials must be at most 100000, got 100001\n"


def _refuse_read(*args, **kwargs):
    raise AssertionError("an input file above the size bound was read")


@pytest.mark.parametrize(
    "args",
    [("verify",), ("reconstruct", "--mode", "from-p"), ("reconstruct", "--mode", "from-w-integral")],
)
def test_oversized_input_exit_2_unread(capsys, tmp_path, monkeypatch, args):
    from spintomo import cli

    assert cli.MAX_INPUT_BYTES == 16 * 1024 * 1024
    payload = tmp_path / "big.json"
    with open(payload, "wb") as handle:
        handle.truncate(cli.MAX_INPUT_BYTES + 1)  # sparse: no blocks written
    monkeypatch.setattr(Path, "read_text", _refuse_read)
    monkeypatch.setattr(Path, "open", _refuse_read)
    code, out, err = run_cli(capsys, *args, "--input", str(payload))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {str(payload)!r} has 16777217 bytes, more than the 16777216 "
        "accepted for an input file\n"
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_piped_input_over_the_bound_exit_2(capsys, tmp_path):
    # A pipe reports size 0 to stat, so only a bounded read can refuse it.
    from spintomo import cli

    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)

    def feed():
        try:
            with open(pipe, "wb") as handle:
                handle.write(b" " * (cli.MAX_INPUT_BYTES + 1))
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code, out, err = run_cli(capsys, "verify", "--input", str(pipe))
    writer.join(timeout=30)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {str(pipe)!r} has more than the 16777216 bytes accepted for an "
        "input file\n"
    )


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_input_newlines_read_as_text(capsys, tmp_path, newline):
    # Positions in a JSON error count a CRLF or lone CR as one newline.
    payload = tmp_path / "input.json"
    payload.write_bytes(b"{" + newline + b'"p_table": }')
    code, out, err = run_cli(capsys, "verify", "--input", str(payload))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {str(payload)!r} is not valid JSON: Expecting value: line 2 "
        "column 12 (char 13)\n"
    )


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text", ['{"w_axes": [0.5, 0.5, 0.5]}', '{"w_axes": ', "[" * 100_000],
    ids=["valid", "invalid", "nested"],
)
def test_input_parsed_with_gc_paused_then_restored(monkeypatch, tmp_path, text, enabled):
    # The cyclic garbage collector is off during the parse, and afterwards in
    # the state the caller left it, whether the parse succeeded or not.
    from types import SimpleNamespace

    from spintomo import cli

    during = []

    def loads(s):
        during.append(gc.isenabled())
        return json.loads(s)

    monkeypatch.setattr(cli, "json", SimpleNamespace(loads=loads))
    payload = tmp_path / "input.json"
    payload.write_text(text)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            result = cli._load_json(str(payload))
        except cli.CliError:
            result = None
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]
    assert after is enabled
    assert (result is not None) == (text == '{"w_axes": [0.5, 0.5, 0.5]}')


def test_overflowing_bloch_norm_prints_only_the_error(capsys):
    # numpy reports an overflow through the warnings machinery, which would
    # print it, with a source path, on stderr before the error line.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "p-table", "--state", "bloch=1e308,1e308,0")
    assert (code, out) == (3, "")
    assert err == "error: Bloch vector norm inf exceeds 1/2; state would not be positive\n"


_TRIPLE_VERBS = [("verify",), ("reconstruct", "--mode", "from-w-axes")]


def test_overflowing_triple_norm_prints_only_the_error(capsys, tmp_path):
    # b . b and the eigenvalue radius of from-w-axes's report overflow, so
    # neither verb has a finite number to print, and no document can carry
    # an infinite one.
    payload = tmp_path / "triple.json"
    for wz in (1e308, -1e308):
        payload.write_text(json.dumps({"w_axes": {"wx_plus": 0.0, "wy_plus": 0.0, "wz_plus": wz}}))
        for verb in _TRIPLE_VERBS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, *verb, "--input", str(payload))
            assert (code, out) == (2, "")
            assert err == (
                "error: the result has non-finite numbers; an input value is too large to process\n"
            )


@pytest.mark.parametrize("verb", _TRIPLE_VERBS, ids=lambda v: v[0])
def test_huge_triple_is_refused_with_a_document(capsys, validator, tmp_path, verb):
    # b . b = 1e308 is still finite, so both verbs judge the triple and print
    # the refusal with its finite deviation.
    payload = tmp_path / "triple.json"
    payload.write_text(json.dumps({"w_axes": {"wx_plus": 0.0, "wy_plus": 0.0, "wz_plus": 1e154}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = run_doc(capsys, validator, *verb, "--input", str(payload))
    assert (code, err) == (3, "")
    if verb == ("verify",):
        [check] = doc["checks"]
        assert check["name"] == "triple-physicality"
        assert check["deviation"] == 1e154
    else:
        assert doc["validation"]["min_eigenvalue"] == -1e154


@pytest.mark.parametrize("verb", _TRIPLE_VERBS, ids=lambda v: v[0])
@pytest.mark.parametrize("wz", [1e155, 1e300])
def test_triple_whose_norm_overflows_is_refused_with_a_document(
    capsys, validator, tmp_path, verb, wz
):
    # b . b overflows, but the least eigenvalue of from-w-axes's report,
    # 1/2 - |b| = -wz in floats, does not: verify takes its deviation from
    # that report, and both verbs print the refusal.
    payload = tmp_path / "triple.json"
    payload.write_text(json.dumps({"w_axes": {"wx_plus": 0.0, "wy_plus": 0.0, "wz_plus": wz}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = run_doc(capsys, validator, *verb, "--input", str(payload))
    assert (code, err) == (3, "")
    if verb == ("verify",):
        [check] = doc["checks"]
        assert (check["name"], check["deviation"], check["passed"]) == (
            "triple-physicality", wz, False
        )
    else:
        assert doc["validation"]["min_eigenvalue"] == -wz


@pytest.mark.parametrize("off_diagonal", [(1e308, -1e308), (1e308, 1e308)])
def test_overflowing_rho_prints_only_the_error(capsys, tmp_path, off_diagonal):
    # m - m^dagger, or m + m^dagger, overflows; the report fails on its own.
    cells = [{"re": 0.5, "im": 0.0}, *({"re": x, "im": 0.0} for x in off_diagonal)]
    rho = [[cells[0], cells[1]], [cells[2], cells[0]]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *_integral_input(tmp_path, {"j": 0.5, "rho": rho}))
    assert (code, out) == (3, "")
    assert err.startswith("error: not a physical density matrix (FAILED: ")
    assert len(err.splitlines()) == 1


def test_reconstruct_integral_state_at_spin_within_tolerance(capsys, validator, tmp_path):
    # A j within the 1e-9 tolerance of 1/2 is spin 1/2 for a state as for a rho.
    code, doc, _ = run_doc(
        capsys, validator, *_integral_input(tmp_path, {"j": 0.5000000001, "state": "up_z"})
    )
    assert code == 0
    assert doc["j"] == 0.5000000001
    assert np.abs(matrix_from_doc(doc["rho"]) - np.diag([1.0, 0.0])).max() < 1e-12


def _p_table_entries(**first):
    # The unpolarized table, with fields of its first entry replaced.
    entries = [{"c": c, "b": b, "a": a, "re": 0.125, "im": 0.0} for c, b, a in VERTEX_ORDER]
    entries[0].update(first)
    return entries


# Each input used to escape the exit-code contract with a traceback.  The
# message names the flag, the file (<path>) or the field.
_REFUSED_INPUTS = {
    "negative-seed": (
        None,
        ("sweep", "--trials", "1", "--seed", "-1"),
        "--seed must be non-negative, got -1",
    ),
    "not-utf8": (b'{"p_table": "\xff"}', ("verify",), "<path> is not UTF-8 text"),
    "deep-nesting": (b"[" * 100_000, ("verify",), "<path> is nested too deeply"),
    "digit-limit": (b"[1" + b"0" * 5000 + b"]", ("verify",), "<path> is not valid JSON"),
    "infinite-vertex": (
        json.dumps({"p_table": _p_table_entries(c=1e400)}).encode().replace(b"Infinity", b"1e400"),
        ("verify",),
        "'p_table' entry [0] needs the integer 1 or -1 as 'c'",
    ),
    # An integer beyond the float range reads as an infinity; the refusal
    # quotes it cut short.
    "huge-integer-triple": (
        b'{"w_axes": {"wx_plus": 1' + b"0" * 400 + b', "wy_plus": 0.5, "wz_plus": 0.5}}',
        ("reconstruct", "--mode", "from-w-axes"),
        "'w_axes' field 'wx_plus' must be finite, got 1" + "0" * 23 + "... (401 characters)\n",
    ),
    "huge-integer-sample": (
        b'{"j": 0.5, "samples": [{"m": 0.5, "theta": 0.1, "phi": 0.0, "w": 1'
        + b"0" * 400
        + b"}]}",
        ("reconstruct", "--mode", "from-w-integral"),
        "sample at (m=0.5, theta=0.1, phi=0.0) has non-finite w=inf",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_INPUTS))
def test_unusable_input_exits_2_naming_it(capsys, tmp_path, case):
    content, args, message = _REFUSED_INPUTS[case]
    if content is not None:
        payload = tmp_path / "input.json"
        payload.write_bytes(content)
        args = (*args, "--input", str(payload))
        message = message.replace("<path>", repr(str(payload)))
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_HALF_TRIPLE = {"wx_plus": 0.5, "wy_plus": 0.5, "wz_plus": 0.5}
_CELL = {"re": 0.0, "im": 0.0}


def _with_sample(field, value):
    """A samples document whose first record has ``value`` as ``field``,
    and the refusal of it."""
    samples = json.loads(json.dumps(_grid_samples(np.eye(2) / 2, 0.5)))
    samples[0][field] = value
    return {"j": 0.5, "samples": samples}, f"'samples' entry [0] needs a number {field!r}"


# Each field of a p_table entry, a w_axes object, a rho cell or a sample
# must be a JSON number: a boolean or a string that spells a number was
# read as one, and a missing field or an object of the wrong type printed
# Python's bare exception text.  Each now exits 2 naming the object and the
# field.
_NOT_NUMBERS = {
    "triple true": (
        "from-w-axes",
        {"w_axes": dict(_HALF_TRIPLE, wx_plus=True)},
        "'w_axes' needs a number 'wx_plus'",
    ),
    "triple string": (
        "from-w-axes",
        {"w_axes": dict(_HALF_TRIPLE, wx_plus="0.5")},
        "'w_axes' needs a number 'wx_plus'",
    ),
    "triple missing": (
        "from-w-axes",
        {"w_axes": {"wx_plus": 0.5, "wy_plus": 0.5}},
        "'w_axes' needs a number 'wz_plus'",
    ),
    "triple list": (
        "from-w-axes",
        {"w_axes": [0.5, 0.5, 0.5]},
        "'w_axes' must be an object with a number 'wx_plus'",
    ),
    "verify triple null": (
        "verify",
        {"w_axes": dict(_HALF_TRIPLE, wy_plus=None)},
        "'w_axes' needs a number 'wy_plus'",
    ),
    "rho re true": (
        "from-w-integral",
        {"j": 0.5, "rho": [[dict(_CELL, re=True), _CELL], [_CELL, _CELL]]},
        "'rho' entry [0][0] needs a number 're'",
    ),
    "rho im string": (
        "from-w-integral",
        {"j": 0.5, "rho": [[_CELL, _CELL], [_CELL, dict(_CELL, im="0")]]},
        "'rho' entry [1][1] needs a number 'im'",
    ),
    "rho number cell": (
        "from-w-integral",
        {"j": 0.5, "rho": [[_CELL, 0.5], [_CELL, _CELL]]},
        "'rho' entry [0][1] must be an object with a number 're'",
    ),
    "rho object": (
        "from-w-integral",
        {"j": 0.5, "rho": {"re": 0.5, "im": 0.0}},
        "'rho' must be a list of rows of {re, im} objects",
    ),
    "table re string": (
        "from-p",
        {"p_table": _p_table_entries(re="0.125")},
        "'p_table' entry [0] needs a number 're'",
    ),
    "verify table im true": (
        "verify",
        {"p_table": _p_table_entries(im=False)},
        "'p_table' entry [0] needs a number 'im'",
    ),
    "table entry list": (
        "verify",
        {"p_table": [[1, 1, 1, 0.125, 0.0]] + _p_table_entries()[1:]},
        "'p_table' entry [0] needs the integer 1 or -1 as 'c'",
    ),
    "sample w string": ("from-w-integral", *_with_sample("w", "0.5")),
    "sample m true": ("from-w-integral", *_with_sample("m", True)),
}


# A vertex label must be the JSON integer 1 or -1: int() read 1.9, true
# and "1" as 1.  Each vertex must appear once: a repeated one replaced the
# earlier entry.
def _bad_label(key, label):
    entries = _p_table_entries(**{key: label})
    return entries, f"'p_table' entry [0] needs the integer 1 or -1 as {key!r}"


_BAD_LABELS = {
    "label 1.9": _bad_label("c", 1.9),
    "label 1.0": _bad_label("b", 1.0),
    "label true": _bad_label("a", True),
    "label string": _bad_label("c", "1"),
    "label 2": _bad_label("c", 2),
    "label missing": _bad_label("b", None),
    "repeated vertex": (
        _p_table_entries() + _p_table_entries()[:1],
        "'p_table' entry [8] repeats the vertex (c, b, a) = (1, 1, 1)",
    ),
}


@pytest.mark.parametrize("case", sorted(_NOT_NUMBERS))
def test_fields_must_be_json_numbers(capsys, tmp_path, case):
    mode, doc, message = _NOT_NUMBERS[case]
    payload = tmp_path / "input.json"
    payload.write_text(json.dumps(doc))
    command = ("verify",) if mode == "verify" else ("reconstruct", "--mode", mode)
    code, out, err = run_cli(capsys, *command, "--input", str(payload))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [("verify",), ("reconstruct", "--mode", "from-p")])
@pytest.mark.parametrize("case", sorted(_BAD_LABELS))
def test_table_vertices_are_plus_or_minus_one_once(capsys, tmp_path, case, command):
    entries, message = _BAD_LABELS[case]
    payload = tmp_path / "input.json"
    payload.write_text(json.dumps({"p_table": entries}))
    code, out, err = run_cli(capsys, *command, "--input", str(payload))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "doc.json"
    code, out, err = run_cli(capsys, "p-table", "--state", "up_z", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}")
    assert not target.parent.exists()
