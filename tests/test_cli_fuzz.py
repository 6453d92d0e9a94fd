"""Fuzz the CLI's exit-code contract through ``cli.main``.

Every invocation exits 0, 2 or 3.  Exit 0 writes a strict JSON document
that the output schema accepts.  Exit 2 writes exactly one ``error:`` line
and no document.  Exit 3 writes a document that reports the failure, or,
when the state itself is refused, no document and one ``error:`` line.  No
invocation raises, and none emits a warning.

Two kinds of input are drawn.  Every single fault of a valid input (a flag,
field or record set to an edge value, removed or repeated) is a finite set,
which Hypothesis runs in full.  Random text and JSON values fuzz the rest.
"""

import contextlib
import io
import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from spintomo import build_quadrature, m_values, w_callable_from_density
from spintomo.cli import main

RANDOM = settings(max_examples=30)
# Enough to run every single fault.
EVERY = settings(max_examples=200)

_VALIDATOR = jsonschema.Draft202012Validator(
    json.loads(
        resources.files("spintomo")
        .joinpath("schemas/output_document.schema.json")
        .read_text()
    )
)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def check_contract(*argv):
    """Run ``main(argv)`` and check its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0 or (code == 3 and out):
        _VALIDATOR.validate(json.loads(out, parse_constant=_refuse_constant))
        assert err == ""
    else:
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    return code


# Stands for a removed flag or key.
DROP = object()


def faults(valid: dict, values) -> list:
    """Every copy of ``valid`` with one key set to one of ``values``, or
    removed for ``DROP``."""
    out = []
    for name in valid:
        for value in values:
            doc = dict(valid)
            if value is DROP:
                del doc[name]
            else:
                doc[name] = value
            out.append(doc)
    return out


def record_faults(records: list, values) -> list:
    """Every copy of ``records`` with one fault in its last record: a key
    faulted as by ``faults``, the record replaced by one of ``values``,
    removed, or repeated."""
    *rest, last = records
    docs = [rest + [record] for record in faults(last, values)]
    docs += [rest + [value] for value in values if value is not DROP]
    return docs + [rest, records + [last]]


# Command-line values.  None starts with "-h", so none reaches argparse's help.
ARGUMENTS = [DROP, "-1", "0", "1", "1.5", "1e-17", "-0.0", "1e400", "nan", "inf", "", "x"]
ARGUMENTS += ["100001", str(2**64), str(10**30)]
TEXT = st.text(max_size=6).filter(lambda s: not s.startswith("-"))
NUMBER_TEXT = st.one_of(
    st.sampled_from([value for value in ARGUMENTS if value is not DROP]),
    st.sampled_from(["-inf", "0x10", "1_0", " 1", "1e"]),
    st.floats().map(repr),
    TEXT,
)

SWEEP_FLAGS = {"--trials": "5", "--seed": "3", "--tol": "1e-10"}


def _sweep(flags):
    return check_contract("sweep", *(part for flag in flags for part in (flag, flags[flag])))


@EVERY
@given(flags=st.sampled_from(faults(SWEEP_FLAGS, ARGUMENTS)))
def test_sweep_flag_faults(flags):
    _sweep(flags)


@RANDOM
@given(flags=st.dictionaries(st.sampled_from(sorted(SWEEP_FLAGS)), NUMBER_TEXT))
def test_sweep_random_flags(flags):
    _sweep(flags)


W_SINGLE = {"--theta": "1", "--phi": "0.5"}
# ``--axes`` takes no value; None stands for the bare flag.
W_GRID = {"--grid": "3", "--axes": None}


def _w(flags, *extra):
    argv = ["w", "--state", "up_x", *extra]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return check_contract(*argv)


# No accepted --grid is above 3: ``w --grid 256`` takes seconds.
@EVERY
@given(flags=st.sampled_from(faults(W_SINGLE, ARGUMENTS) + faults(W_GRID, ARGUMENTS)))
def test_w_flag_faults(flags):
    _w(flags)


@pytest.mark.parametrize(
    "value",
    ["-1e-17", "-1E3", "-2.5e+1", "-.5e-300", "-1.", "-inf", "-Infinity", "-INF", "-nan", "-NaN"],
)
@pytest.mark.parametrize("flag", ["--theta", "--phi", "--tol"])
def test_negative_number_with_exponent_is_the_flags_value(flag, value):
    # argparse alone reads these as unknown options when they follow a space;
    # they must give what the form joined with "=" gives.
    runs = []
    for spelled in ([flag, value], [f"{flag}={value}"]):
        flags = {name: W_SINGLE[name] for name in W_SINGLE if name != flag}
        argv = ["w", "--state", "up_x", *spelled, *(part for item in flags.items() for part in item)]
        assert check_contract(*argv) in (0, 2)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append((main(argv), out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    code, _, err = runs[0]
    if not math.isfinite(float(value)):
        assert (code, err) == (2, f"error: {flag} must be finite, got {float(value)!r}\n")
    elif flag == "--tol":
        assert (code, err) == (2, f"error: --tol must be non-negative, got {float(value)!r}\n")
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("flags", [W_SINGLE, W_GRID], ids=["single", "grid"])
@pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "missing-parent"])
def test_w_unwritable_output(tmp_path, flags, target):
    assert _w(flags, "--output", str(tmp_path / target)) == 2


def _spec(kind, count):
    return st.lists(NUMBER_TEXT, min_size=count - 1, max_size=count + 1).map(
        lambda parts: f"{kind}=" + ",".join(parts)
    )


STATE_SPECS = st.one_of(
    st.sampled_from(["up_z", "up_x", "up_y", "unpolarized", "down", "bloch", "rho="]),
    st.tuples(*[st.floats(-0.4, 0.4)] * 3).map(lambda b: "bloch=%r,%r,%r" % b),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).map(lambda w: "w-axes=%r,%r,%r" % w),
    _spec("bloch", 3),
    _spec("w-axes", 3),
    _spec("rho", 4),
    TEXT,
)


@settings(max_examples=60)
@given(spec=STATE_SPECS, verb=st.sampled_from(["p-table", "w", "grid"]))
def test_state_specs(spec, verb):
    argv = {
        "p-table": ["p-table", "--state", spec],
        "w": ["w", "--state", spec, "--theta", "0.5", "--phi", "1.0", "--axes"],
        "grid": ["w", "--state", spec, "--grid", "3"],
    }[verb]
    check_contract(*argv)


# JSON values: out of float range, non-finite, or of the wrong type.
EDGES = [DROP, 10**400, -(10**400), math.nan, math.inf, True, None, 2, "0.5", [], {}]
JSON_VALUES = st.recursive(
    st.one_of(st.sampled_from(EDGES[1:]), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _run_on(input_path, doc, *argv):
    input_path.write_text(json.dumps(doc))
    return check_contract(*argv, "--input", str(input_path))


UP_X_TABLE = [
    {"c": c, "b": b, "a": a, "re": 0.125, "im": 0.0}
    for a in (1, -1)
    for b in (1, -1)
    for c in (1, -1)
]
UP_X_TRIPLE = {"wx_plus": 1.0, "wy_plus": 0.5, "wz_plus": 0.5}


_MODES = {"p_table": "from-p", "w_axes": "from-w-axes"}


def _check_field(input_path, name, value):
    # ``verify`` with the other field valid, then the reconstruction.
    doc = {"p_table": UP_X_TABLE, "w_axes": UP_X_TRIPLE, name: value}
    _run_on(input_path, doc, "verify")
    _run_on(input_path, {name: value}, "reconstruct", "--mode", _MODES[name])


@EVERY
@given(
    field=st.sampled_from(
        [("p_table", table) for table in record_faults(UP_X_TABLE, EDGES)]
        + [("w_axes", triple) for triple in faults(UP_X_TRIPLE, EDGES)]
    )
)
def test_table_and_triple_faults(input_path, field):
    _check_field(input_path, *field)


TABLE_ENTRIES = st.fixed_dictionaries(
    {name: st.floats(-1.0, 1.0) | JSON_VALUES for name in ("c", "b", "a", "re", "im")}
)
RANDOM_FIELDS = {
    "p_table": st.lists(TABLE_ENTRIES, min_size=8, max_size=8) | JSON_VALUES,
    "w_axes": st.fixed_dictionaries({name: st.floats() for name in UP_X_TRIPLE}) | JSON_VALUES,
}


@RANDOM
@given(name=st.sampled_from(sorted(RANDOM_FIELDS)), data=st.data())
def test_random_tables_and_triples(input_path, name, data):
    _check_field(input_path, name, data.draw(RANDOM_FIELDS[name]))


MODES = (*_MODES.values(), "from-w-integral")


@EVERY
@given(
    doc=st.sampled_from(EDGES[1:]),
    argv=st.sampled_from([["verify"]] + [["reconstruct", "--mode", mode] for mode in MODES]),
)
def test_documents_that_are_not_objects(input_path, doc, argv):
    _run_on(input_path, doc, *argv)


def _samples(j):
    family = w_callable_from_density(np.eye(int(2 * j) + 1) / (2 * j + 1))
    grid = build_quadrature(j, oversample=1)
    return [
        {"m": m1, "theta": theta, "phi": phi, "w": family(m1, theta, phi)}
        for m1 in m_values(j)
        for theta in grid.theta_nodes
        for phi in grid.phi_nodes
    ]


SAMPLES = _samples(0.5)
SPINS = [1, 0, 25.5, 26, -0.5, 0.75] + EDGES[1:]


def _integral(input_path, doc, oversample="1"):
    return _run_on(
        input_path, doc, "reconstruct", "--mode", "from-w-integral", "--oversample", oversample
    )


@EVERY
@given(
    doc=st.sampled_from(
        [{"j": 0.5, "samples": samples} for samples in record_faults(SAMPLES, EDGES)]
        + [{"j": j, "samples": SAMPLES} for j in SPINS]
        + [{"j": 0.5, "samples": value} for value in EDGES[1:]]
    )
)
def test_sample_document_faults(input_path, doc):
    _integral(input_path, doc)


@RANDOM
@given(
    records=st.lists(
        st.fixed_dictionaries({name: st.floats() | JSON_VALUES for name in SAMPLES[0]}),
        max_size=3,
    ),
    spin=st.sampled_from([0.5, 1.0]) | JSON_VALUES,
    oversample=NUMBER_TEXT,
)
def test_random_sample_documents(input_path, records, spin, oversample):
    # Half the grid and a few random records.
    doc = {"j": spin, "samples": SAMPLES[: len(SAMPLES) // 2] + records}
    _integral(input_path, doc, oversample)
