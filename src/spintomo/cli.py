"""Command-line interface emitting deterministic JSON documents.

Verbs:

* ``p-table``     quasiprobability table of a state, with admissibility report
* ``w``           tomographic probabilities along one direction or a grid
* ``reconstruct`` density matrix from a table, axis probabilities, or tomograms
* ``verify``      round-trip and consistency checks for one state
* ``sweep``       the same checks over seeded random states

Exit codes: 0 success, 2 unusable input (bad flags, non-finite numbers,
unparsable state or file), 3 physically inadmissible input or failed
checks.  Documents are strict JSON (no NaN or Infinity), serialized with
sorted keys and fixed indentation, so a given invocation always produces
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import AdmissibilityError, NonPhysicalStateError
from .general_inversion import (
    HalfInteger,
    build_quadrature,
    m_values,
    reconstruct_density_j,
    require_density_j,
    validate_density_j,
    w_callable_from_density,
)
from .quasiprob import (
    VERTEX_ORDER,
    QuasiProbTable,
    check_admissibility,
    density_from_p,
    marginal,
    p_from_density,
    p_oracle,
)
from .radon_link import p_from_w, verify_radon_consistency
from .sampling import random_density_matrices
from .spin_core import density_from_bloch, require_density, validate_density
from .tomography import (
    AxisTriple,
    Direction,
    EulerAngles,
    density_from_w_axes,
    w_axes,
    w_value,
)

DEFAULT_TOL = 1e-10
SCHEMA_VERSION = "1"

NAMED_STATES = {
    "up_z": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "up_x": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "up_y": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "unpolarized": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


class CliError(Exception):
    """Input that cannot be parsed or combined into a runnable command."""


def _parse_numbers(payload: str, count: int, caster, what: str):
    parts = [part.strip() for part in payload.split(",")]
    if len(parts) != count:
        raise CliError(f"expected {count} comma-separated {what}, got {len(parts)}")
    values = []
    for part in parts:
        try:
            values.append(caster(part))
        except ValueError as exc:
            raise CliError(f"cannot parse {part!r} as {what[:-1]}: {exc}") from exc
    return values


def parse_state(text: str, tol: float):
    """Resolve a state specification to (kind, density matrix).

    Accepted forms: a named state, ``bloch=bx,by,bz``,
    ``rho=r00,r01,r10,r11`` with complex entries in Python syntax (``j`` for
    the imaginary unit), or ``w-axes=wx,wy,wz`` with the three
    up-probabilities.  Unparsable specs raise :class:`CliError`; parsable
    but unphysical ones raise :class:`NonPhysicalStateError`.
    """
    if text in NAMED_STATES:
        return "named", NAMED_STATES[text].copy()
    key, sep, payload = text.partition("=")
    if sep:
        if key == "bloch":
            values = _parse_numbers(payload, 3, float, "floats")
            return "bloch", density_from_bloch(np.array(values), tol)
        if key == "rho":
            values = _parse_numbers(payload, 4, complex, "complex numbers")
            m = np.array([[values[0], values[1]], [values[2], values[3]]])
            return "rho", require_density(m, tol)
        if key == "w-axes":
            values = _parse_numbers(payload, 3, float, "floats")
            return "w-axes", density_from_w_axes(AxisTriple(*values), tol)
    raise CliError(
        f"unrecognized state {text!r}; expected one of "
        f"{', '.join(sorted(NAMED_STATES))}, or bloch=bx,by,bz, "
        "rho=r00,r01,r10,r11, or w-axes=wx,wy,wz"
    )


def _complex_obj(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _matrix_obj(m) -> list:
    return [[_complex_obj(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_obj(rows) -> np.ndarray:
    try:
        m = np.array(
            [[complex(cell["re"], cell["im"]) for cell in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, KeyError, OverflowError) as exc:
        raise CliError(f"'rho' entries must be objects with 're' and 'im': {exc}") from exc
    except ValueError as exc:
        raise CliError(f"'rho' must be a square matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise CliError(f"'rho' must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise CliError("'rho' has non-finite entries")
    return m


def _validation_obj(report) -> dict:
    return {
        "passed": report.passed,
        "hermiticity_deviation": float(report.hermiticity_deviation),
        "trace_deviation": float(report.trace_deviation),
        "min_eigenvalue": float(report.min_eigenvalue),
    }


def _state_obj(kind: str, spec: str, rho) -> dict:
    return {"kind": kind, "spec": spec, "rho": _matrix_obj(rho)}


def _table_obj(table: QuasiProbTable) -> list:
    return [
        {
            "c": c,
            "b": b,
            "a": a,
            "re": float(table[c, b, a].real),
            "im": float(table[c, b, a].imag),
        }
        for (c, b, a) in VERTEX_ORDER
    ]


def _table_from_obj(entries) -> QuasiProbTable:
    if not isinstance(entries, list):
        raise CliError("'p_table' must be a list of 8 entries")
    mapping = {}
    for item in entries:
        try:
            vertex = (int(item["c"]), int(item["b"]), int(item["a"]))
            value = complex(float(item["re"]), float(item["im"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise CliError(f"malformed table entry {item!r}: {exc}") from exc
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise CliError(f"table entry {item!r} is not finite")
        mapping[vertex] = value
    try:
        return QuasiProbTable(mapping)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _triple_from_obj(obj) -> AxisTriple:
    try:
        triple = AxisTriple(
            wx_plus=float(obj["wx_plus"]),
            wy_plus=float(obj["wy_plus"]),
            wz_plus=float(obj["wz_plus"]),
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise CliError(f"malformed 'w_axes' object: {exc}") from exc
    if not all(map(math.isfinite, (triple.wx_plus, triple.wy_plus, triple.wz_plus))):
        raise CliError(f"'w_axes' values must be finite, got {obj!r}")
    return triple


def _admissibility_obj(report) -> dict:
    return {
        "passed": report.passed,
        "total_deviation": float(report.total_deviation),
        "redundancy_deviation": float(report.redundancy_deviation),
        "marginal_max_imag": float(max(m.imag_magnitude for m in report.marginals)),
        "marginal_max_range_violation": float(
            max(m.range_violation for m in report.marginals)
        ),
        "density": _validation_obj(report.density_report),
    }


def _envelope(command: str, tol: float) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "tol": float(tol)}


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path!r} is not valid JSON: {exc}") from exc


def cmd_p_table(args):
    kind, rho = parse_state(args.state, args.tol)
    builder = p_oracle if args.oracle else p_from_density
    table = builder(rho, args.tol)
    report = check_admissibility(table, args.tol)
    doc = _envelope("p-table", args.tol)
    doc["state"] = _state_obj(kind, args.state, rho)
    doc["p_table"] = _table_obj(table)
    doc["total"] = _complex_obj(table.total())
    doc["marginals"] = [
        {"axis": axis, "sign": sign, "value": _complex_obj(marginal(table, axis, sign))}
        for axis in ("x", "y", "z")
        for sign in (1, -1)
    ]
    doc["admissibility"] = _admissibility_obj(report)
    return doc, 0, None


def _tomogram_obj(t) -> dict:
    return {
        "theta": float(t.direction.theta),
        "phi": float(t.direction.phi),
        "w_plus": float(t.w_plus),
        "w_minus": float(t.w_minus),
    }


def cmd_w(args):
    kind, rho = parse_state(args.state, args.tol)
    for flag in ("theta", "phi", "psi"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise CliError(f"--{flag} must be finite, got {value!r}")
    single = args.theta is not None or args.phi is not None
    if single and args.grid is not None:
        raise CliError("give either --theta/--phi or --grid, not both")
    if not single and args.grid is None:
        raise CliError("one of --theta/--phi or --grid is required")
    tomograms = []
    if single:
        if args.theta is None or args.phi is None:
            raise CliError("--theta and --phi must be given together")
        u = EulerAngles(phi=args.phi, theta=args.theta, psi=args.psi)
        tomograms.append(w_value(rho, u, args.tol))
    else:
        if args.grid < 1:
            raise CliError(f"--grid must be at least 1, got {args.grid}")
        x, _ = np.polynomial.legendre.leggauss(args.grid)
        thetas = np.arccos(x)[::-1]
        phis = np.arange(args.grid) * (2.0 * np.pi / args.grid)
        for theta in thetas:
            for phi in phis:
                d = Direction(theta=float(theta), phi=float(phi))
                tomograms.append(w_value(rho, d, args.tol))
    doc = _envelope("w", args.tol)
    doc["state"] = _state_obj(kind, args.state, rho)
    doc["tomograms"] = [_tomogram_obj(t) for t in tomograms]
    if args.axes:
        triple = w_axes(rho, args.tol)
        doc["w_axes"] = {
            "wx_plus": float(triple.wx_plus),
            "wy_plus": float(triple.wy_plus),
            "wz_plus": float(triple.wz_plus),
        }
    csv_text = None
    if args.format == "csv":
        lines = ["theta,phi,w_plus,w_minus"]
        lines.extend(
            "%.17g,%.17g,%.17g,%.17g"
            % (t.direction.theta, t.direction.phi, t.w_plus, t.w_minus)
            for t in tomograms
        )
        csv_text = "\n".join(lines) + "\n"
    return doc, 0, csv_text


def _spin_from_doc(data) -> float:
    if "j" not in data:
        raise CliError("input document needs a 'j' field for integral reconstruction")
    j = data["j"]
    if not isinstance(j, (int, float)):
        raise CliError(f"'j' must be a number, got {j!r}")
    try:
        spin = float(j)
        twice = HalfInteger(spin).twice if math.isfinite(spin) else -1
    except (OverflowError, ValueError):
        twice = -1
    if twice < 0:
        raise CliError(f"'j' must be a non-negative multiple of 1/2, got {j!r}")
    return spin


def _w_from_samples(data, grid, j) -> np.ndarray:
    """The sample array (m, theta, phi) of a ``samples`` list, which must
    cover every node of the grid exactly once."""
    ms = m_values(j)
    shape = (len(ms), grid.n_theta, grid.n_phi)
    values = np.empty(shape)
    seen = np.zeros(shape, dtype=bool)
    match_tol = 1e-9
    if not isinstance(data["samples"], list):
        raise CliError("'samples' must be a list of {m, theta, phi, w} records")
    for sample in data["samples"]:
        try:
            m1 = float(sample["m"])
            theta = float(sample["theta"])
            phi = float(sample["phi"])
            w = float(sample["w"])
        except (TypeError, KeyError, ValueError) as exc:
            raise CliError(f"malformed sample {sample!r}: {exc}") from exc
        if m1 not in ms:
            raise CliError(f"sample projection {m1} is not in the spin-{j} multiplet")
        if not np.isfinite(w):
            raise CliError(
                f"sample at (m={m1!r}, theta={theta!r}, phi={phi!r}) has non-finite w={w!r}"
            )
        it = int(np.argmin(np.abs(grid.theta_nodes - theta)))
        ip = int(np.argmin(np.abs(grid.phi_nodes - phi)))
        # Written so that a NaN angle fails the match too.
        if not (
            abs(grid.theta_nodes[it] - theta) <= match_tol
            and abs(grid.phi_nodes[ip] - phi) <= match_tol
        ):
            raise CliError(
                f"sample at (theta={theta!r}, phi={phi!r}) does not sit on the "
                "reconstruction grid"
            )
        cell = (ms.index(m1), it, ip)
        if seen[cell]:
            raise CliError(
                f"duplicate sample at (m={m1!r}, theta={theta!r}, phi={phi!r})"
            )
        seen[cell] = True
        values[cell] = w
    if not seen.all():
        raise CliError(
            "samples do not cover the full reconstruction grid "
            f"({np.count_nonzero(~seen)} of {seen.size} cells missing)"
        )
    return values


def cmd_reconstruct(args):
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise CliError("input document must be a JSON object")
    doc = _envelope("reconstruct", args.tol)
    doc["mode"] = args.mode
    if args.mode == "from-p":
        if "p_table" not in data:
            raise CliError("input document needs a 'p_table' field")
        table = _table_from_obj(data["p_table"])
        try:
            rho = density_from_p(table, args.tol)
        except AdmissibilityError as exc:
            doc["error"] = {"type": "AdmissibilityError", "message": str(exc)}
            if exc.report is not None:
                doc["validation"] = _validation_obj(exc.report)
            return doc, 3, None
        doc["rho"] = _matrix_obj(rho)
        doc["validation"] = _validation_obj(validate_density(rho, args.tol))
        return doc, 0, None
    if args.mode == "from-w-axes":
        if "w_axes" not in data:
            raise CliError("input document needs a 'w_axes' field")
        triple = _triple_from_obj(data["w_axes"])
        try:
            rho = density_from_w_axes(triple, args.tol)
        except AdmissibilityError as exc:
            doc["error"] = {"type": "AdmissibilityError", "message": str(exc)}
            if exc.report is not None:
                doc["validation"] = _validation_obj(exc.report)
            return doc, 3, None
        doc["rho"] = _matrix_obj(rho)
        doc["validation"] = _validation_obj(validate_density(rho, args.tol))
        return doc, 0, None
    # from-w-integral
    if args.oversample < 1:
        raise CliError(f"--oversample must be at least 1, got {args.oversample}")
    j = _spin_from_doc(data)
    doc["j"] = j
    grid = build_quadrature(j, oversample=args.oversample)
    if "samples" in data:
        w = _w_from_samples(data, grid, j)
    elif "rho" in data:
        source = require_density_j(_matrix_from_obj(data["rho"]), args.tol)
        if source.shape[0] != int(round(2 * j)) + 1:
            raise CliError(
                f"'rho' has dimension {source.shape[0]} but spin {j} needs "
                f"{int(round(2 * j)) + 1}"
            )
        w = w_callable_from_density(source, args.tol)
    elif "state" in data:
        if abs(j - 0.5) > 1e-12:
            raise CliError("'state' specifications are only defined for j = 1/2")
        _, source = parse_state(str(data["state"]), args.tol)
        w = w_callable_from_density(source, args.tol)
    else:
        raise CliError(
            "input document needs 'samples', 'rho', or 'state' for integral "
            "reconstruction"
        )
    rho = reconstruct_density_j(w, j, grid=grid, tol=args.tol)
    report = validate_density_j(rho, args.tol)
    doc["rho"] = _matrix_obj(rho)
    doc["validation"] = _validation_obj(report)
    return doc, 0 if report.passed else 3, None


def _check_obj(name: str, deviation: float, tol: float) -> dict:
    deviation = float(deviation)
    return {
        "name": name,
        "deviation": deviation,
        "tol": float(tol),
        "passed": deviation <= tol,
    }


def _state_deviations(rho, tol: float) -> dict:
    table = p_from_density(rho, tol)
    deviations = {
        "p_round_trip": float(np.abs(density_from_p(table, tol) - rho).max()),
        "w_axes_round_trip": float(
            np.abs(density_from_w_axes(w_axes(rho, tol), tol) - rho).max()
        ),
        "radon_consistency": verify_radon_consistency(rho, tol).max_abs_delta,
        "oracle_equivalence": float(
            np.abs(p_oracle(rho, tol).to_array() - table.to_array()).max()
        ),
    }
    report = check_admissibility(table, tol)
    deviations["admissibility"] = max(
        report.total_deviation,
        report.redundancy_deviation,
        max(m.imag_magnitude for m in report.marginals),
        max(m.range_violation for m in report.marginals),
        report.density_report.hermiticity_deviation,
        report.density_report.trace_deviation,
        max(0.0, -report.density_report.min_eigenvalue),
    )
    return deviations


def cmd_verify(args):
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise CliError("input document must be a JSON object")
    if "p_table" not in data and "w_axes" not in data:
        raise CliError("input document needs a 'p_table', a 'w_axes' triple, or both")
    doc = _envelope("verify", args.tol)
    checks = []
    table = None
    triple = None
    if "p_table" in data:
        table = _table_from_obj(data["p_table"])
        report = check_admissibility(table, args.tol)
        doc["p_table"] = _table_obj(table)
        doc["admissibility"] = _admissibility_obj(report)
        density = report.density_report
        checks.append(_check_obj("table-total", report.total_deviation, args.tol))
        checks.append(
            _check_obj(
                "table-marginal-imag",
                max(m.imag_magnitude for m in report.marginals),
                args.tol,
            )
        )
        checks.append(
            _check_obj(
                "table-marginal-range",
                max(m.range_violation for m in report.marginals),
                args.tol,
            )
        )
        checks.append(
            _check_obj(
                "table-density",
                max(
                    density.hermiticity_deviation,
                    density.trace_deviation,
                    max(0.0, -density.min_eigenvalue),
                ),
                args.tol,
            )
        )
        checks.append(
            _check_obj("table-redundancy", report.redundancy_deviation, args.tol)
        )
    if "w_axes" in data:
        triple = _triple_from_obj(data["w_axes"])
        doc["w_axes"] = {
            "wx_plus": triple.wx_plus,
            "wy_plus": triple.wy_plus,
            "wz_plus": triple.wz_plus,
        }
        ws = (triple.wx_plus, triple.wy_plus, triple.wz_plus)
        deviation = max(0.0, float(np.linalg.norm(triple.mean_values())) - 1.0)
        deviation = max(deviation, *(max(0.0, w - 1.0, -w) for w in ws))
        checks.append(_check_obj("triple-physicality", deviation, args.tol))
    if table is not None and triple is not None:
        direct = p_from_w(triple, args.tol, validate=False)
        delta = max(abs(direct[v] - table[v]) for v in VERTEX_ORDER)
        checks.append(_check_obj("radon-consistency", delta, args.tol))
    doc["checks"] = checks
    passed = all(check["passed"] for check in checks)
    doc["passed"] = passed
    return doc, 0 if passed else 3, None


def cmd_sweep(args):
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    states = random_density_matrices(args.trials, args.seed)
    maxima: dict = {}
    for rho in states:
        for name, deviation in _state_deviations(rho, args.tol).items():
            maxima[name] = max(maxima.get(name, 0.0), float(deviation))
    passed = all(value <= args.tol for value in maxima.values())
    doc = _envelope("sweep", args.tol)
    doc["trials"] = args.trials
    doc["seed"] = args.seed
    doc["max_deviations"] = {name: maxima[name] for name in sorted(maxima)}
    doc["passed"] = passed
    return doc, 0 if passed else 3, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Quasiprobability tables and tomographic probabilities "
        "for spin states.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="tolerance for physicality and consistency checks (default %(default)g)",
    )
    common.add_argument(
        "--output", metavar="FILE", help="write the document here instead of stdout"
    )
    common.add_argument(
        "--format",
        choices=("doc", "csv"),
        default="doc",
        help="output format; csv is only available for the w command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "p-table", parents=[common], help="quasiprobability table of a state"
    )
    p.add_argument("--state", required=True, help="state specification")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="build the table from eigenket overlaps instead of the closed form",
    )

    w = sub.add_parser(
        "w", parents=[common], help="tomographic probabilities of a state"
    )
    w.add_argument("--state", required=True, help="state specification")
    w.add_argument("--theta", type=float, help="polar angle of one direction")
    w.add_argument("--phi", type=float, help="azimuth of one direction")
    w.add_argument(
        "--psi",
        type=float,
        default=0.0,
        help="third Euler angle; probabilities do not depend on it",
    )
    w.add_argument(
        "--grid",
        type=int,
        metavar="N",
        help="evaluate on an N x N direction grid instead of one direction",
    )
    w.add_argument(
        "--axes",
        action="store_true",
        help="also report the three-axis probability triple",
    )

    r = sub.add_parser(
        "reconstruct", parents=[common], help="density matrix from measured data"
    )
    r.add_argument(
        "--mode",
        required=True,
        choices=("from-p", "from-w-axes", "from-w-integral"),
        help="which representation the input document carries",
    )
    r.add_argument("--input", required=True, metavar="FILE", help="input JSON document")
    r.add_argument(
        "--oversample",
        type=int,
        default=2,
        help="quadrature refinement factor for integral reconstruction",
    )

    v = sub.add_parser(
        "verify", parents=[common], help="constraint checks for measured artifacts"
    )
    v.add_argument(
        "--input",
        required=True,
        metavar="FILE",
        help="JSON document with a 'p_table', a 'w_axes' triple, or both",
    )

    s = sub.add_parser(
        "sweep", parents=[common], help="consistency checks over random states"
    )
    s.add_argument("--trials", type=int, default=100, help="number of random states")
    s.add_argument("--seed", type=int, default=0, help="random generator seed")
    return parser


_COMMANDS = {
    "p-table": cmd_p_table,
    "w": cmd_w,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _json_payload(doc) -> str:
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError(
            "the result has non-finite numbers; an input value is too large to process"
        ) from exc


def _emit(payload: str, args) -> None:
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.format == "csv" and args.command != "w":
        print("error: csv output is only available for the w command", file=sys.stderr)
        return 2
    if not math.isfinite(args.tol):
        print(f"error: --tol must be finite, got {args.tol!r}", file=sys.stderr)
        return 2
    try:
        doc, code, csv_text = _COMMANDS[args.command](args)
        payload = csv_text if csv_text is not None else _json_payload(doc)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonPhysicalStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(payload, args)
    return code


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))
