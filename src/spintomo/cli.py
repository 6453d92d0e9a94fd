"""Command-line interface emitting deterministic JSON documents.

Verbs:

* ``p-table``     quasiprobability table of a state, with admissibility report
* ``w``           tomographic probabilities along one direction or a grid
* ``reconstruct`` density matrix from a table, axis probabilities, or tomograms
* ``verify``      round-trip and consistency checks for one state
* ``sweep``       the same checks over seeded random states

Every verb takes ``--tol`` and ``--output``; ``w --format csv`` writes its
tomograms as CSV rows instead of a document.  ``w`` takes one direction as a
1 x 1 grid, and ``sweep`` its batch checks from ``radon_link``.

Exit codes: 0 success, 2 unusable input (bad flags or flags that do not
combine, non-finite numbers, requests above the size bounds, unparsable
state or file, unwritable output file), 3 physically inadmissible input or
failed checks.  Documents are strict JSON (no NaN or Infinity), serialized
with sorted keys and fixed indentation, so a given invocation always
produces identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

# Every verb needs these modules.  Each verb imports the others it runs where
# it runs them, so that a process loads only its own verb's modules.
from .common import _DEFAULT_OVERSAMPLE, TOL, _positive
from .errors import AdmissibilityError, NonPhysicalStateError

SCHEMA_VERSION = "1"
# Request size bounds, checked before anything is allocated.  ``w --grid
# 256`` evaluates 65,536 directions (about 120 MB peak, a 10 MB document).
# ``sweep --trials 100000`` takes about 0.4 s and peaks at about 125 MB.
# Integral reconstruction is tested up to spin 25; there, ``--oversample 4``
# from a ``rho`` peaks at about 126 MiB: 66 MiB is two arrays of the
# (2j+1) x n_theta x n_phi sample size, the samples and the scratch array
# that sampling and inversion share, 8 MiB smaller scratch arrays, and
# 11 MiB the cached kernel.  Input files, pipes included, are read whole up
# to 16 MiB and parsed by ``json``; at 16 MiB the most memory-hungry
# documents found (millions of small objects) peak at about 580 MB.
MAX_GRID = 256
MAX_TRIALS = 100_000
MAX_OVERSAMPLE = 4
MAX_SPIN = 25
MAX_INPUT_BYTES = 16 * 1024 * 1024

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
            from .spin_core import density_from_bloch

            values = _parse_numbers(payload, 3, float, "floats")
            return "bloch", density_from_bloch(np.array(values), tol)
        if key == "rho":
            from .spin_core import require_density

            values = _parse_numbers(payload, 4, complex, "complex numbers")
            m = np.array([[values[0], values[1]], [values[2], values[3]]])
            return "rho", require_density(m, tol)
        if key == "w-axes":
            from .tomography import AxisTriple, density_from_w_axes

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


def _float(value) -> float:
    """A JSON number as a float; an integer beyond the float range reads as
    an infinity, as a float literal beyond it does."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(obj, key: str, what: str) -> float:
    """The field ``key`` of the JSON object ``obj``, which ``what`` names in
    a refusal, as a float.  The field must be a JSON number: not a boolean,
    and not a string that spells one."""
    value = obj.get(key) if isinstance(obj, dict) else None
    # type(), not isinstance(): json reads true as True, an int.
    if type(value) not in (float, int):
        if not isinstance(obj, dict):
            raise CliError(f"{what} must be an object with a number {key!r}")
        raise CliError(f"{what} needs a number {key!r}")
    return _float(value)


def _brief(value) -> str:
    """``repr(value)`` for a refusal, cut short past 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


def _finite_numbers(obj, keys, what: str) -> list:
    """The fields ``keys`` of ``obj`` as floats, as ``_number`` reads them,
    each refused unless finite."""
    values = [_number(obj, key, what) for key in keys]
    for key, value in zip(keys, values):
        if not math.isfinite(value):
            raise CliError(f"{what} field {key!r} must be finite, got {_brief(obj[key])}")
    return values


def _cell(cell, r: int, c: int) -> complex:
    what = f"'rho' entry [{r}][{c}]"
    return complex(_number(cell, "re", what), _number(cell, "im", what))


def _matrix_from_obj(rows) -> np.ndarray:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise CliError("'rho' must be a list of rows of {re, im} objects")
    values = [[_cell(cell, r, c) for c, cell in enumerate(row)] for r, row in enumerate(rows)]
    try:
        m = np.array(values, dtype=complex)
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


def _table_obj(table) -> list:
    return [
        {"c": c, "b": b, "a": a, "re": float(value.real), "im": float(value.imag)}
        for (c, b, a), value in table.items()
    ]


def _vertex_label(item, key: str, what: str) -> int:
    label = item.get(key) if isinstance(item, dict) else None
    # type(), not isinstance(): json reads true as True, an int.
    if type(label) is not int or label not in (1, -1):
        raise CliError(f"{what} needs the integer 1 or -1 as {key!r}")
    return label


def _table_from_obj(entries):
    from .quasiprob import QuasiProbTable

    if not isinstance(entries, list):
        raise CliError("'p_table' must be a list of 8 entries")
    mapping = {}
    for k, item in enumerate(entries):
        what = f"'p_table' entry [{k}]"
        vertex = tuple(_vertex_label(item, key, what) for key in "cba")
        value = complex(*_finite_numbers(item, ("re", "im"), what))
        if vertex in mapping:
            raise CliError(f"{what} repeats the vertex (c, b, a) = {vertex}")
        mapping[vertex] = value
    try:
        return QuasiProbTable(mapping)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


_TRIPLE_FIELDS = ("wx_plus", "wy_plus", "wz_plus")


def _triple_from_obj(obj) -> AxisTriple:
    from .tomography import AxisTriple

    return AxisTriple(*_finite_numbers(obj, _TRIPLE_FIELDS, "'w_axes'"))


def _admissibility_obj(report, maxima: dict) -> dict:
    return {
        "passed": report.passed,
        "total_deviation": float(report.total_deviation),
        "redundancy_deviation": float(report.redundancy_deviation),
        "marginal_max_imag": float(maxima["marginal-imag"]),
        "marginal_max_range_violation": float(maxima["marginal-range"]),
        "density": _validation_obj(report.density_report),
    }


def _w_axes_obj(triple: AxisTriple) -> dict:
    return {field: float(getattr(triple, field)) for field in _TRIPLE_FIELDS}


def _bounded(flag: str, value: int, most: int) -> None:
    """Refuse the integer option ``flag`` unless ``value`` is in 1..``most``."""
    if value < 1:
        raise CliError(f"{flag} must be at least 1, got {value}")
    if value > most:
        raise CliError(f"{flag} must be at most {most}, got {value}")


def _envelope(command: str, tol: float) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "tol": float(tol)}


def _load_json(path: str):
    try:
        size = Path(path).stat().st_size
        if size > MAX_INPUT_BYTES:
            raise CliError(
                f"{path!r} has {size} bytes, more than the {MAX_INPUT_BYTES} "
                "accepted for an input file"
            )
        # A pipe reports size 0, so the read is bounded as well.
        with Path(path).open("rb") as handle:
            raw = handle.read(MAX_INPUT_BYTES + 1)
        if len(raw) > MAX_INPUT_BYTES:
            raise CliError(
                f"{path!r} has more than the {MAX_INPUT_BYTES} bytes accepted "
                "for an input file"
            )
        # Universal newlines, as a text-mode read gives them.
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path!r} is not UTF-8 text: {exc}") from exc
    # The parse only allocates, and allocates no cycles, so the cyclic
    # garbage collector is paused for it: documents of many small lists or
    # objects parse several times faster.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise CliError(f"{path!r} is nested too deeply to parse") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal above Python's digit limit
        raise CliError(f"{path!r} is not valid JSON: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def cmd_p_table(args):
    from .quasiprob import _admissibility_maxima, check_admissibility, p_from_density

    kind, rho = parse_state(args.state, args.tol)
    table = p_from_density(rho, args.tol)
    report = check_admissibility(table, args.tol)
    doc = _envelope("p-table", args.tol)
    doc["state"] = _state_obj(kind, args.state, rho)
    doc["p_table"] = _table_obj(table)
    doc["total"] = _complex_obj(report.total)
    doc["marginals"] = [
        {"axis": m.axis, "sign": m.sign, "value": _complex_obj(m.value)}
        for m in report.marginals
    ]
    doc["admissibility"] = _admissibility_obj(report, _admissibility_maxima(report))
    return doc, 0


def cmd_w(args):
    from .spin_core import require_density
    from .tomography import Direction, _w_grid, w_axes

    kind, rho = parse_state(args.state, args.tol)
    for flag in ("theta", "phi"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise CliError(f"--{flag} must be finite, got {value!r}")
    if args.axes and args.format == "csv":
        raise CliError("--axes has no csv form; give it with --format doc")
    single = args.theta is not None or args.phi is not None
    if single and args.grid is not None:
        raise CliError("give either --theta/--phi or --grid, not both")
    if not single and args.grid is None:
        raise CliError("one of --theta/--phi or --grid is required")
    if single:
        if args.theta is None or args.phi is None:
            raise CliError("--theta and --phi must be given together")
        # The 1 x 1 grid of the direction's canonical angles.
        direction = Direction(theta=args.theta, phi=args.phi)
        thetas, phis = [direction.theta], [direction.phi]
    else:
        _bounded("--grid", args.grid, MAX_GRID)
        from .general_inversion import _product_grid

        grid = _product_grid(args.grid, args.grid)
        # Already canonical, so these are the directions' own angles.
        thetas = grid.theta_nodes.tolist()
        phis = grid.phi_nodes.tolist()
    w_plus, w_minus = _w_grid(require_density(rho, args.tol), thetas, phis)
    rows = zip(
        np.repeat(thetas, len(phis)).tolist(),
        phis * len(thetas),
        w_plus.ravel().tolist(),
        w_minus.ravel().tolist(),
    )
    if args.format == "csv":
        lines = "".join("%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
        return "theta,phi,w_plus,w_minus\n" + lines, 0
    doc = _envelope("w", args.tol)
    doc["state"] = _state_obj(kind, args.state, rho)
    doc["tomograms"] = [
        {"theta": theta, "phi": phi, "w_plus": plus, "w_minus": minus}
        for theta, phi, plus, minus in rows
    ]
    if args.axes:
        doc["w_axes"] = _w_axes_obj(w_axes(rho, args.tol))
    return doc, 0


def _spin_from_doc(data) -> tuple:
    """The spin of an integral reconstruction document, and twice it."""
    if "j" not in data:
        raise CliError("input document needs a 'j' field for integral reconstruction")
    from .general_inversion import _twice_spin

    j = data["j"]
    try:
        tj = _twice_spin(j)
    except TypeError as exc:
        raise CliError(f"'j' must be a number, got {_brief(j)}") from exc
    except ValueError as exc:
        raise CliError(f"'j' must be a non-negative multiple of 1/2, got {_brief(j)}") from exc
    spin = float(j)
    if spin > MAX_SPIN:
        raise CliError(f"'j' must be at most {MAX_SPIN}, got {_brief(j)}")
    return spin, tj


_SAMPLE_FIELDS = ("m", "theta", "phi", "w")
# The refusal of a record for each fault code of ``_w_from_samples``, in
# check order.
_SAMPLE_FAULTS = (
    "sample projection {m} is not in the spin-{j} multiplet",
    "sample at (m={m!r}, theta={theta!r}, phi={phi!r}) has non-finite w={w!r}",
    "sample at (theta={theta!r}, phi={phi!r}) does not sit on the reconstruction grid",
    "duplicate sample at (m={m!r}, theta={theta!r}, phi={phi!r})",
)
# How far a sample's angles may lie from their grid node.
_MATCH_TOL = 1e-9


def _nearest(nodes: np.ndarray, values: np.ndarray):
    """Index of the node of the ascending ``nodes`` nearest to each value, and
    the distance to it (NaN for NaN).  A value halfway between two nodes lies
    far off both, whichever it is given."""
    index = np.searchsorted(0.5 * (nodes[1:] + nodes[:-1]), values)
    return index, np.abs(nodes[index] - values)


def _w_from_samples(data, grid, j) -> np.ndarray:
    """The sample array (m, theta, phi) of a ``samples`` list, which must
    cover every node of the grid exactly once.

    Each record is judged on its own, and a bad list is refused for its
    first record, in document order, that fails a check, by the first check
    that record fails: malformed, then ``m``, then a non-finite ``w``, then
    off the grid, then on a cell that an earlier record holds.  Missing
    cells are reported after that.
    """
    from .general_inversion import m_values

    records = data["samples"]
    if not isinstance(records, list):
        raise CliError("'samples' must be a list of {m, theta, phi, w} records")
    # Read up to the first malformed record, one that is not an object of
    # four JSON numbers; the records before it are still checked first.
    parsed = []
    for record in records:
        try:
            parsed.extend([record[field] for field in _SAMPLE_FIELDS])
        except (TypeError, KeyError):
            break
    if not set(map(type, parsed)) <= {float, int}:
        # A boolean, a string, null, a list or an object ends the read.
        first = next(i for i, v in enumerate(parsed) if type(v) not in (float, int))
        del parsed[first - first % 4 :]
    try:
        rows = np.array(parsed, dtype=float).reshape(-1, 4)
    except OverflowError:
        rows = np.array([_float(v) for v in parsed]).reshape(-1, 4)
    m1, theta, phi, w = rows.T

    ms = np.array(m_values(j)[::-1])
    im, m_off = _nearest(ms, m1)
    it, theta_off = _nearest(grid.theta_nodes, theta)
    ip, phi_off = _nearest(grid.phi_nodes, phi)
    # Written so that a NaN angle fails the match too.
    on_grid = (theta_off <= _MATCH_TOL) & (phi_off <= _MATCH_TOL)
    shape = (len(ms), grid.n_theta, grid.n_phi)
    cells = np.ravel_multi_index((len(ms) - 1 - im, it, ip), shape)
    # A record repeats when an earlier record holds its cell.  Every record
    # before the first faulty one passed every check, so there this is the
    # record loop's repeat of an earlier accepted record.
    index = np.arange(len(rows))
    first = np.full(math.prod(shape), len(rows))
    np.minimum.at(first, cells, index)
    repeat = first[cells] < index
    # Each record's first failed check, in check order; 0 for none.
    fault = np.select([m_off != 0, ~np.isfinite(w), ~on_grid, repeat], [1, 2, 3, 4])
    if fault.any():
        k = np.flatnonzero(fault)[0]
        fields = dict(zip(_SAMPLE_FIELDS, rows[k].tolist()))
        raise CliError(_SAMPLE_FAULTS[fault[k] - 1].format(j=j, **fields))
    if len(rows) < len(records):
        # The field that ended the read raises.
        for field in _SAMPLE_FIELDS:
            _number(records[len(rows)], field, f"'samples' entry [{len(rows)}]")
    # With no fault every record holds a cell of its own.
    missing = first.size - len(rows)
    if missing:
        raise CliError(
            "samples do not cover the full reconstruction grid "
            f"({missing} of {first.size} cells missing)"
        )
    out = np.empty(shape)
    out.reshape(-1)[cells] = w
    return out


def cmd_reconstruct(args):
    integral = args.mode == "from-w-integral"
    if args.oversample is not None and not integral:
        raise CliError(
            f"--oversample applies only to --mode from-w-integral, not {args.mode}"
        )
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise CliError("input document must be a JSON object")
    doc = _envelope("reconstruct", args.tol)
    doc["mode"] = args.mode
    if not integral:
        from .spin_core import validate_density

        # Modes that invert a spin-1/2 representation in closed form: the
        # input field, its parser, and the inversion.
        if args.mode == "from-p":
            from .quasiprob import density_from_p as invert

            field, parse = "p_table", _table_from_obj
        else:
            from .tomography import density_from_w_axes as invert

            field, parse = "w_axes", _triple_from_obj
        if field not in data:
            raise CliError(f"input document needs a '{field}' field")
        source = parse(data[field])
        try:
            rho = invert(source, args.tol)
        except AdmissibilityError as exc:
            doc["error"] = {"type": "AdmissibilityError", "message": str(exc)}
            if exc.report is not None:
                doc["validation"] = _validation_obj(exc.report)
            return doc, 3
        doc["rho"] = _matrix_obj(rho)
        doc["validation"] = _validation_obj(validate_density(rho, args.tol))
        return doc, 0
    from .general_inversion import (
        DensityTomogram,
        build_quadrature,
        reconstruct_density_j,
        validate_density_j,
        w_callable_from_density,
    )

    oversample = _DEFAULT_OVERSAMPLE if args.oversample is None else args.oversample
    _bounded("--oversample", oversample, MAX_OVERSAMPLE)
    j, tj = _spin_from_doc(data)
    doc["j"] = j
    grid = build_quadrature(j, oversample=oversample)
    if "samples" in data:
        w = _w_from_samples(data, grid, j)
    elif "rho" in data:
        matrix = _matrix_from_obj(data["rho"])
        if len(matrix) != tj + 1:
            raise CliError(f"'rho' has dimension {len(matrix)} but spin {j} needs {tj + 1}")
        w = w_callable_from_density(matrix, args.tol)
    elif "state" in data:
        if tj != 1:
            raise CliError("'state' specifications are only defined for j = 1/2")
        # Judged once, by the spin-1/2 rule, as every spin-1/2 verb judges it.
        w = DensityTomogram(parse_state(str(data["state"]), args.tol)[1])
    else:
        raise CliError(
            "input document needs 'samples', 'rho', or 'state' for integral "
            "reconstruction"
        )
    rho = reconstruct_density_j(w, j, grid=grid, tol=args.tol)
    report = validate_density_j(rho, args.tol)
    doc["rho"] = _matrix_obj(rho)
    doc["validation"] = _validation_obj(report)
    return doc, 0 if report.passed else 3


def _check_obj(name: str, deviation: float, tol: float) -> dict:
    deviation = float(deviation)
    return {
        "name": name,
        "deviation": deviation,
        "tol": float(tol),
        "passed": deviation <= tol,
    }


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
        from .quasiprob import _admissibility_maxima, check_admissibility

        table = _table_from_obj(data["p_table"])
        report = check_admissibility(table, args.tol)
        maxima = _admissibility_maxima(report)
        doc["p_table"] = _table_obj(table)
        doc["admissibility"] = _admissibility_obj(report, maxima)
        for name, deviation in maxima.items():
            checks.append(_check_obj(f"table-{name}", deviation, args.tol))
    if "w_axes" in data:
        from .spin_core import _bloch_excess, _report

        triple = _triple_from_obj(data["w_axes"])
        doc["w_axes"] = _w_axes_obj(triple)
        b = (triple.wx_plus - 0.5, triple.wy_plus - 0.5, triple.wz_plus - 0.5)
        excess = _bloch_excess(*b)
        if excess == math.inf:
            # b . b overflowed: from-w-axes's least eigenvalue, the one number
            # of its report that a finite triple can make non-finite (or NaN).
            from .tomography import _density_entries

            excess = -_report(_density_entries(triple), args.tol).min_eigenvalue
        deviation = _positive(excess)
        checks.append(_check_obj("triple-physicality", deviation, args.tol))
    if table is not None and triple is not None:
        from .radon_link import p_from_w

        direct = p_from_w(triple, args.tol, validate=False)
        delta = max(abs(d - t) for (_, d), (_, t) in zip(direct.items(), table.items()))
        checks.append(_check_obj("radon-consistency", delta, args.tol))
    doc["checks"] = checks
    passed = all(check["passed"] for check in checks)
    doc["passed"] = passed
    return doc, 0 if passed else 3


def cmd_sweep(args):
    from .radon_link import _sweep_deviations
    from .sampling import random_density_matrices

    _bounded("--trials", args.trials, MAX_TRIALS)
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    states = random_density_matrices(args.trials, args.seed)
    maxima = {
        name: float(deviations.max())
        for name, deviations in _sweep_deviations(states, args.tol).items()
    }
    passed = all(value <= args.tol for value in maxima.values())
    doc = _envelope("sweep", args.tol)
    doc["trials"] = args.trials
    doc["seed"] = args.seed
    doc["max_deviations"] = {name: maxima[name] for name in sorted(maxima)}
    doc["passed"] = passed
    return doc, 0 if passed else 3


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
        default=TOL,
        help="tolerance for physicality and consistency checks (default %(default)g)",
    )
    common.add_argument(
        "--output", metavar="FILE", help="write the document here instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "p-table", parents=[common], help="quasiprobability table of a state"
    )
    p.add_argument("--state", required=True, help="state specification")

    w = sub.add_parser(
        "w", parents=[common], help="tomographic probabilities of a state"
    )
    w.add_argument("--state", required=True, help="state specification")
    w.add_argument("--theta", type=float, help="polar angle of one direction")
    w.add_argument("--phi", type=float, help="azimuth of one direction")
    w.add_argument(
        "--grid",
        type=int,
        metavar="N",
        help="evaluate on an N x N direction grid instead of one direction "
        f"(N at most {MAX_GRID})",
    )
    w.add_argument(
        "--axes",
        action="store_true",
        help="also report the three-axis probability triple",
    )
    w.add_argument(
        "--format",
        choices=("doc", "csv"),
        default="doc",
        help="write the JSON document, or the tomograms as CSV rows "
        "(default %(default)s)",
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
        help="quadrature refinement factor, for --mode from-w-integral only "
        f"(1 to {MAX_OVERSAMPLE}, default {_DEFAULT_OVERSAMPLE})",
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
    s.add_argument(
        "--trials",
        type=int,
        default=100,
        help=f"number of random states (at most {MAX_TRIALS})",
    )
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
        try:
            Path(args.output).write_text(payload)
        except OSError as exc:
            raise CliError(f"cannot write {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(payload)


# argparse takes a token after a flag for an option, not for the flag's
# value, when it starts with "-" and is not of the form -1 or -1.5: so
# "--phi -1e-17" or "--phi -inf" is refused.  Joined to its flag,
# "--phi=-1e-17", it is read.  Any case, as ``float`` reads it.
_NUMBER_FLAGS = ("--theta", "--phi", "--tol")
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)", re.I)


def _join_negative_numbers(argv: list) -> list:
    """``argv`` with each negative number that follows a number flag joined
    to it with "="."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _NUMBER_FLAGS and _NEGATIVE_NUMBER.fullmatch(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_numbers(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not math.isfinite(args.tol):
            raise CliError(f"--tol must be finite, got {args.tol!r}")
        if args.tol < 0:
            raise CliError(f"--tol must be non-negative, got {args.tol!r}")
        payload, code = _COMMANDS[args.command](args)
        _emit(payload if isinstance(payload, str) else _json_payload(payload), args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonPhysicalStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


def entry_point() -> None:
    code = main(sys.argv[1:])
    # The process ends here.  Freezing moves every live object, among them
    # the ~22,000 that importing numpy and spintomo made, to the permanent
    # generation, which the collections at shutdown do not walk: teardown
    # fell from about 25 ms to about 5.5 ms on a 2-vCPU Xeon VM.  Streams
    # are still flushed and atexit handlers still run, which ``os._exit``
    # would skip.  ``main`` does not freeze, since tests call it in process.
    gc.freeze()
    raise SystemExit(code)
