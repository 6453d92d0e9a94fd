"""Write, or check, the golden corpus of CLI invocations.

Each case is an argv and, where the verb reads one, the input file it is
given.  Running ``spintomo.cli.main`` on it in process records the exit
code, the sha256 of stdout (and of the ``--output`` file, if one was
written) and stderr in full.  ``corpus.json`` next to this script holds the
cases, their outcomes and the platform they were recorded on.

Usage, from the root of the repository:

    python tests/golden/generate.py           # rewrite corpus.json
    python tests/golden/generate.py --check   # exit 1 if it is out of date

How a replay is compared with the corpus (``compare``):

* ``exact`` cases match stdout's hash, the output file's hash and stderr
  exactly.  Their numbers are real float arithmetic on Python floats or,
  term for term, on numpy arrays; the spin-1/2 tomograms among them have a
  closed form with no matrix product.  The one BLAS product left is
  ``p_oracle``'s, of a 2x2 matrix and a real x ket, which ``sweep`` runs.
* ``numeric`` cases print numbers whose rounding may differ on another
  CPU: spin-j reconstructions, from the kernel's BLAS sums and LAPACK's
  eigenvalues, and ``w --grid`` tomograms, whose theta nodes come from
  numpy's vectorised arccos (with AVX-512 numpy uses its own arccos, which
  differs from libm's in the last bit on about one input in ten).  Their
  exit code and the kind of output (document or ``error:`` line) must
  match.  The output must match the recorded one once every number under
  its top-level ``NUMERIC_KEYS`` is set to 0 (every number, for CSV), and
  those numbers must each lie within ``NUMBER_TOL`` of the recorded ones;
  of a longer output every k-th number is kept, at most ``MAX_NUMBERS``.
  An error line must match with its numbers compared the same way.
* A ``numeric`` case marked ``either`` is a maximally mixed state at
  ``--tol 0``.  There rounding decides whether the samples are refused (an
  ``error:`` line, exit 3), the result fails validation (a document with
  ``passed: false``, exit 3) or passes it (exit 0): the reconstruction is
  exactly Hermitian, so only the rounding of its trace and eigenvalues
  decides.  All three are allowed.
* ``argparse`` cases (help and usage text) match exactly only under the
  Python minor version they were recorded with, since argparse's wording
  changes between versions; elsewhere only their exit code is compared.

``--check`` rebuilds the case list and fails if it differs from the
committed one (off the recording platform, input numbers are compared at
``NUMBER_TOL``), or if a replay of a committed case fails ``compare``.  On
the recording platform it also requires every outcome bit for bit, the
numeric cases included, and the file's exact text.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
# The checkout's own package, whether or not another copy is installed.
sys.path.insert(0, str(HERE.parent.parent / "src"))

from spintomo import cli  # noqa: E402

# Absolute tolerance on each number of a numeric case.  Reconstructions up
# to spin 25 round at about 1e-15.
NUMBER_TOL = 1e-12
NUMERIC_KEYS = ("rho", "validation", "tomograms", "w_axes")
MAX_NUMBERS = 1024
INPUT = "input.json"
OUTPUT = "out.json"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def platform_record() -> dict:
    """What decides the bits of a spin-j result: the interpreter, numpy, its
    BLAS and the CPU features that select BLAS and SIMD kernels."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


# ---------------------------------------------------------------- inputs


def _complex_rows(m) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]


def _random_mixed(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = g @ g.conj().T
    a = 0.5 * (a + a.conj().T)
    return a / a.trace().real


def _random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    a = np.outer(v, v.conj())
    return 0.5 * (a + a.conj().T)


def _top(dim):
    a = np.zeros((dim, dim), dtype=complex)
    a[0, 0] = 1.0
    return a


def _grid_nodes(j, oversample):
    tj = round(2 * j)
    n_theta = max(8, tj + 2) * oversample
    n_phi = max(8, 2 * tj + 2) * oversample
    x = np.polynomial.legendre.leggauss(n_theta)[0]
    return np.arccos(x)[::-1].tolist(), (np.arange(n_phi) * (2.0 * math.pi / n_phi)).tolist()


def _half_samples(bloch, oversample=1):
    """Closed-form samples of a spin-1/2 Bloch vector: the outcome +1/2
    along (theta, phi) has probability 1/2 + b . n."""
    thetas, phis = _grid_nodes(0.5, oversample)
    records = []
    for m in (0.5, -0.5):
        for t in thetas:
            for p in phis:
                bn = (
                    bloch[0] * math.sin(t) * math.cos(p)
                    + bloch[1] * math.sin(t) * math.sin(p)
                    + bloch[2] * math.cos(t)
                )
                records.append({"m": m, "theta": t, "phi": p, "w": 0.5 + bn if m > 0 else 0.5 - bn})
    return records


def _top_one_samples(oversample=1):
    """|1, 1>: probabilities cos^4, 2 cos^2 sin^2 and sin^4 of theta/2."""
    thetas, phis = _grid_nodes(1, oversample)
    records = []
    for m in (1.0, 0.0, -1.0):
        for t in thetas:
            c, s = math.cos(t / 2) ** 2, math.sin(t / 2) ** 2
            w = {1.0: c * c, 0.0: 2 * c * s, -1.0: s * s}[m]
            records.extend({"m": m, "theta": t, "phi": p, "w": w} for p in phis)
    return records


UP_X_TABLE = [
    {"c": c, "b": b, "a": a, "re": 0.125, "im": 0.0}
    for a in (1, -1)
    for b in (1, -1)
    for c in (1, -1)
]
UP_X_TRIPLE = {"wx_plus": 1.0, "wy_plus": 0.5, "wz_plus": 0.5}
# Stands for "no input file", as JSON null is a document of its own.
_ABSENT = object()


# ----------------------------------------------------------------- cases


def build_cases() -> list:
    cases = []

    def add(name, argv, doc=_ABSENT, kind="exact", text=None, raw=None, repeat=None, **extra):
        case = {"name": name, "class": kind, "argv": list(argv)}
        if doc is not _ABSENT:
            case["input"] = doc
        if text is not None:
            case["input_text"] = text
        if raw is not None:
            case["input_hex"] = raw.hex()
        if repeat is not None:
            case["input_repeat"] = repeat
        case.update(extra)
        cases.append(case)

    def reconstruct(mode, *flags):
        return ["reconstruct", "--mode", mode, "--input", INPUT, *flags]

    integral = ("from-w-integral",)

    # -- argparse: help, usage and flag errors
    add("help", ["--help"], kind="argparse")
    for verb in ("p-table", "w", "reconstruct", "verify", "sweep"):
        add(f"help {verb}", [verb, "--help"], kind="argparse")
    add("no verb", [], kind="argparse")
    add("unknown verb", ["oracle"], kind="argparse")
    add("missing --state", ["p-table"], kind="argparse")
    add("removed --oracle", ["p-table", "--state", "up_z", "--oracle"], kind="argparse")
    add("removed --psi", ["w", "--state", "up_x", "--theta", "1", "--phi", "0", "--psi", "0"], kind="argparse")
    add("removed reconstruct --format", reconstruct("from-p", "--format", "doc"), kind="argparse")
    add("bad --mode", ["reconstruct", "--mode", "from-q", "--input", INPUT], kind="argparse")
    add("bad --format", ["w", "--state", "up_x", "--grid", "2", "--format", "xml"], kind="argparse")
    add("non-integer --grid", ["w", "--state", "up_x", "--grid", "2.5"], kind="argparse")
    add("non-number --tol", ["sweep", "--tol", "x"], kind="argparse")
    add("non-integer --trials", ["sweep", "--trials", "1e3"], kind="argparse")

    # -- --tol
    for tol in ("nan", "inf", "-inf", "-1", "-0.0", "-1e-3", "-1E-300"):
        add(f"--tol {tol}", ["p-table", "--state", "up_z", "--tol", tol])

    # -- p-table on every kind of state specification
    specs = [
        "up_z", "up_x", "up_y", "unpolarized",
        "bloch=0.1,0.2,0.3", "bloch=0,0,0.5", "bloch=0.3,0.3,0.3", "bloch=nan,0,0",
        "bloch=1e400,0,0", "bloch=1,2", "bloch=a,b,c",
        "rho=0.7,0.1+0.2j,0.1-0.2j,0.3", "rho=1,0,0,1", "rho=0.5,0.5j,0.5j,0.5", "rho=1,2,3",
        "rho=x,0,0,1", "w-axes=1,0.5,0.5", "w-axes=0.6,0.7,0.2", "w-axes=1,1,1",
        "w-axes=nan,0.5,0.5", "down_z", "bloch", "",
    ]
    for spec in specs:
        add(f"p-table {spec}", ["p-table", "--state", spec])
    for tol in ("0", "1e-3", "0.5"):
        for spec in ("up_x", "bloch=0.1,0.2,0.3", "rho=0.7,0.1+0.2j,0.1-0.2j,0.3", "w-axes=0.6,0.7,0.2", "bloch=0.3,0.3,0.3"):
            add(f"p-table {spec} tol {tol}", ["p-table", "--state", spec, "--tol", tol])

    # -- w: single directions, grids, axes, csv, and its refusals
    for spec in ("up_z", "up_y", "unpolarized", "bloch=0.1,0.2,0.3", "rho=0.7,0.1+0.2j,0.1-0.2j,0.3", "w-axes=0.6,0.7,0.2"):
        add(f"w single {spec}", ["w", "--state", spec, "--theta", "1", "--phi", "0.5"])
        add(f"w single axes {spec}", ["w", "--state", spec, "--theta", "-7.5", "--phi", "100", "--axes"])
        add(f"w single csv {spec}", ["w", "--state", spec, "--theta", "2", "--phi", "-1", "--format", "csv"])
    # A tiny negative azimuth folds to 0.0, not to 2pi.
    for spec in ("up_y", "bloch=0.1,-0.2,0.3"):
        for phi in ("-1e-17", "-1e-300"):
            add(f"w single {spec} phi {phi}", ["w", "--state", spec, "--theta", "1", f"--phi={phi}"])
            add(f"w single csv {spec} phi {phi}",
                ["w", "--state", spec, "--theta", "1", f"--phi={phi}", "--format", "csv"])
    # A negative number with an exponent is the value of the flag before it.
    add("w single up_y phi -1e-17 spaced", ["w", "--state", "up_y", "--theta", "1", "--phi", "-1e-17"])
    add("w single csv up_x theta -2.5e+1 phi -1E3 spaced",
        ["w", "--state", "up_x", "--theta", "-2.5e+1", "--phi", "-1E3", "--format", "csv"])
    add("w single axes up_z phi -1. spaced", ["w", "--state", "up_z", "--theta", "1", "--phi", "-1.", "--axes"])
    for n in (1, 2, 3, 8, 17, 33):
        add(f"w grid {n}", ["w", "--state", "bloch=0.1,-0.2,0.3", "--grid", str(n)], kind="numeric")
        add(f"w grid {n} axes", ["w", "--state", "up_y", "--grid", str(n), "--axes"], kind="numeric")
        add(f"w grid {n} csv", ["w", "--state", "w-axes=0.6,0.7,0.2", "--grid", str(n), "--format", "csv"],
            kind="numeric")
    add("w grid 256", ["w", "--state", "up_x", "--grid", "256"], kind="numeric")
    add("w grid 0", ["w", "--state", "up_x", "--grid", "0"])
    add("w grid 257", ["w", "--state", "up_x", "--grid", "257"])
    add("w theta nan", ["w", "--state", "up_x", "--theta", "nan", "--phi", "0"])
    add("w phi inf", ["w", "--state", "up_x", "--theta", "0", "--phi", "inf"])
    add("w phi -inf spaced", ["w", "--state", "up_x", "--theta", "1", "--phi", "-inf"])
    add("w theta -NaN spaced", ["w", "--state", "up_x", "--theta", "-NaN", "--phi", "0"])
    add("w axes csv", ["w", "--state", "up_x", "--grid", "2", "--axes", "--format", "csv"])
    add("w single and grid", ["w", "--state", "up_x", "--theta", "1", "--phi", "0", "--grid", "2"])
    add("w no direction", ["w", "--state", "up_x"])
    add("w theta only", ["w", "--state", "up_x", "--theta", "1"])
    add("w unphysical state", ["w", "--state", "bloch=0.4,0.4,0.4", "--grid", "2"])
    add("w written to a file", ["w", "--state", "up_x", "--grid", "2", "--output", OUTPUT], kind="numeric")
    add("w unwritable output", ["w", "--state", "up_x", "--grid", "2", "--output", "missing-dir/out.json"])

    # -- input files
    add("input missing", reconstruct("from-p"))
    add("input not UTF-8", reconstruct("from-p"), raw=b'{"p_table": "\xff"}')
    add("input not JSON", reconstruct("from-p"), text='{"p_table": ')
    add("input nested too deeply", reconstruct("from-p"), text="[", repeat=100_000)
    add("input integer too long", reconstruct("from-p"), text='{"p_table": ' + "9" * 5000 + "}")
    add("input above the size bound", reconstruct("from-p"), text=" ", repeat=cli.MAX_INPUT_BYTES + 1)
    add("input at the size bound", reconstruct("from-p"), text=" ", repeat=cli.MAX_INPUT_BYTES)
    for verb in (reconstruct("from-p"), reconstruct("from-w-axes"), reconstruct(*integral), ["verify", "--input", INPUT]):
        for value in ([], 2, "x", None):
            add(f"{' '.join(verb[:3])} document {value!r}", verb, doc=value)

    # -- reconstruct from-p and from-w-axes
    tables = {
        "up_x": UP_X_TABLE,
        "inadmissible": [dict(e, re=0.25 * e["c"] * e["a"]) for e in UP_X_TABLE],
        "seven entries": UP_X_TABLE[:7],
        "not a list": {"c": 1},
        "malformed entry": UP_X_TABLE[:7] + [{"c": 1, "b": 1}],
        "string entry": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], re="x")],
        "wrong vertex": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], c=2)],
        "boolean entry": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], im=False)],
        "numeric string entry": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], re=str(UP_X_TABLE[7]["re"]))],
        "fractional vertex": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], c=UP_X_TABLE[7]["c"] * 1.9)],
        "float vertex": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], c=float(UP_X_TABLE[7]["c"]))],
        "boolean vertex": [dict(UP_X_TABLE[0], c=True)] + UP_X_TABLE[1:],
        "string vertex": UP_X_TABLE[:7] + [dict(UP_X_TABLE[7], b=str(UP_X_TABLE[7]["b"]))],
        "repeated vertex": UP_X_TABLE + UP_X_TABLE[:1],
    }
    for name, table in tables.items():
        add(f"from-p {name}", reconstruct("from-p"), doc={"p_table": table})
        add(f"verify table {name}", ["verify", "--input", INPUT], doc={"p_table": table})
    add("from-p non-finite entry", reconstruct("from-p"),
        text='{"p_table": [' + ", ".join(json.dumps(e) for e in UP_X_TABLE[:7]) + ', {"c": -1, "b": -1, "a": -1, "re": NaN, "im": 0}]}')
    add("from-p no table", reconstruct("from-p"), doc={"w_axes": UP_X_TRIPLE})
    add("from-p tol 0", reconstruct("from-p", "--tol", "0"), doc={"p_table": UP_X_TABLE})
    add("from-p --oversample", reconstruct("from-p", "--oversample", "99"), doc={"p_table": UP_X_TABLE})
    triples = {
        "up_x": UP_X_TRIPLE,
        "inside": {"wx_plus": 0.6, "wy_plus": 0.7, "wz_plus": 0.2},
        "outside": {"wx_plus": 1.0, "wy_plus": 1.0, "wz_plus": 0.5},
        "missing key": {"wx_plus": 1.0, "wy_plus": 0.5},
        "string value": {"wx_plus": "a", "wy_plus": 0.5, "wz_plus": 0.5},
        "numeric string value": {"wx_plus": "0.5", "wy_plus": 0.5, "wz_plus": 0.5},
        "boolean value": {"wx_plus": 0.5, "wy_plus": True, "wz_plus": 0.5},
        "huge": {"wx_plus": 1e308, "wy_plus": 1e308, "wz_plus": 0.5},
        "not an object": [1, 0.5, 0.5],
    }
    for name, triple in triples.items():
        add(f"from-w-axes {name}", reconstruct("from-w-axes"), doc={"w_axes": triple})
        add(f"verify triple {name}", ["verify", "--input", INPUT], doc={"w_axes": triple})
    add("from-w-axes infinite", reconstruct("from-w-axes"), text='{"w_axes": {"wx_plus": Infinity, "wy_plus": 0.5, "wz_plus": 0.5}}')
    add("from-w-axes huge integer", reconstruct("from-w-axes"),
        text='{"w_axes": {"wx_plus": 0.5, "wy_plus": -1' + "0" * 400 + ', "wz_plus": 0.5}}')
    add("from-w-axes --oversample", reconstruct("from-w-axes", "--oversample", "2"), doc={"w_axes": UP_X_TRIPLE})
    add("from-w-axes no triple", reconstruct("from-w-axes"), doc={"p_table": UP_X_TABLE})

    # -- verify both, and its refusals
    add("verify both", ["verify", "--input", INPUT], doc={"p_table": UP_X_TABLE, "w_axes": UP_X_TRIPLE})
    add("verify both tol 0", ["verify", "--input", INPUT, "--tol", "0"], doc={"p_table": UP_X_TABLE, "w_axes": UP_X_TRIPLE})
    add("verify inconsistent", ["verify", "--input", INPUT],
        doc={"p_table": UP_X_TABLE, "w_axes": triples["inside"]})
    add("verify neither", ["verify", "--input", INPUT], doc={"rho": []})

    # -- sweep
    for trials, seed in ((1, 0), (5, 3), (100, 0), (1000, 7)):
        add(f"sweep {trials} {seed}", ["sweep", "--trials", str(trials), "--seed", str(seed)])
    add("sweep tol 0", ["sweep", "--trials", "20", "--tol", "0"])
    add("sweep trials 0", ["sweep", "--trials", "0"])
    add("sweep trials above bound", ["sweep", "--trials", str(cli.MAX_TRIALS + 1)])
    add("sweep negative seed", ["sweep", "--seed", "-1"])
    add("sweep written to a file", ["sweep", "--trials", "3", "--output", OUTPUT])

    # -- from-w-integral refusals before the kernel
    rho_half = {"j": 0.5, "rho": _complex_rows(np.eye(2) / 2)}
    add("integral no j", reconstruct(*integral), doc={"rho": rho_half["rho"]})
    for j in (True, "1", None, [1], -0.5, 0.3, 25.5, 26):
        add(f"integral j {j!r}", reconstruct(*integral), doc=dict(rho_half, j=j))
    for j in ("1e400", "-1e400", "NaN"):
        add(f"integral j {j}", reconstruct(*integral), text='{"j": %s, "rho": []}' % j)
    add("integral oversample 0", reconstruct(*integral, "--oversample", "0"), doc=rho_half)
    add("integral oversample 5", reconstruct(*integral, "--oversample", "5"), doc=rho_half)
    add("integral no source", reconstruct(*integral), doc={"j": 0.5})
    add("integral state above spin 1/2", reconstruct(*integral), doc={"j": 1, "state": "up_x"})
    add("integral bad state", reconstruct(*integral), doc={"j": 0.5, "state": "up_w"})
    add("integral unphysical state", reconstruct(*integral), doc={"j": 0.5, "state": "bloch=1,0,0"})
    add("integral rho wrong size", reconstruct(*integral), doc={"j": 0.5, "rho": _complex_rows(np.eye(3) / 3)})
    add("integral rho 1x1 at spin 1/2", reconstruct(*integral), doc={"j": 0.5, "rho": _complex_rows(np.eye(1))})
    add("integral rho ragged", reconstruct(*integral), doc={"j": 0.5, "rho": [rho_half["rho"][0], rho_half["rho"][1][:1]]})
    add("integral rho not square", reconstruct(*integral), doc={"j": 0.5, "rho": [rho_half["rho"][0]]})
    add("integral rho empty", reconstruct(*integral), doc={"j": 0.5, "rho": []})
    add("integral rho numbers", reconstruct(*integral), doc={"j": 0.5, "rho": [[0.5, 0], [0, 0.5]]})
    add("integral rho missing im", reconstruct(*integral), doc={"j": 0.5, "rho": [[{"re": 0.5}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": 0.5, "im": 0}]]})
    add("integral rho boolean", reconstruct(*integral), doc={"j": 0.5, "rho": [[{"re": 0.5, "im": 0}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": True, "im": 0}]]})
    add("integral rho object", reconstruct(*integral), doc={"j": 0.5, "rho": {"re": 0.5, "im": 0}})
    add("integral rho non-finite", reconstruct(*integral),
        text='{"j": 0.5, "rho": [[{"re": NaN, "im": 0}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": 0.5, "im": 0}]]}')
    add("integral rho overflowing", reconstruct(*integral),
        text='{"j": 1, "rho": [[{"re": 1e400, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}]]}')
    add("integral rho trace 3", reconstruct(*integral), doc={"j": 1, "rho": _complex_rows(np.eye(3))})
    add("integral rho not positive", reconstruct(*integral), doc={"j": 1, "rho": _complex_rows(np.diag([1.5, 0.0, -0.5]))})
    add("integral rho not hermitian", reconstruct(*integral),
        doc={"j": 1, "rho": _complex_rows(np.array([[0.5, 0.1, 0], [0.2, 0.25, 0], [0, 0, 0.25]]))})
    huge = np.zeros((3, 3), dtype=complex)
    huge[0, 0] = huge[2, 2] = 0.5
    huge[0, 1], huge[1, 0] = 1e308, -1e308
    add("integral rho huge entries", reconstruct(*integral), doc={"j": 1, "rho": _complex_rows(huge)})
    add("integral rho oversample 2 explicitly", reconstruct(*integral, "--oversample", "2"), doc=rho_half, kind="numeric")

    # -- from-w-integral samples documents, and their refusals
    bloch = (0.1, -0.2, 0.3)
    good = _half_samples(bloch)
    for oversample in (1, 2):
        add(f"samples spin 1/2 oversample {oversample}", reconstruct(*integral, "--oversample", str(oversample)),
            doc={"j": 0.5, "samples": _half_samples(bloch, oversample)}, kind="numeric")
    add("samples spin 1/2 reversed", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": good[::-1]}, kind="numeric")
    add("samples |1, 1>", reconstruct(*integral, "--oversample", "1"), doc={"j": 1, "samples": _top_one_samples()}, kind="numeric")
    add("samples |1, 1> oversample 2", reconstruct(*integral, "--oversample", "2"),
        doc={"j": 1, "samples": _top_one_samples(2)}, kind="numeric")
    add("samples on the wrong grid", reconstruct(*integral), doc={"j": 0.5, "samples": good})
    add("samples not a list", reconstruct(*integral), doc={"j": 0.5, "samples": {"m": 0.5}})
    add("samples missing cells", reconstruct(*integral, "--oversample", "1"), doc={"j": 0.5, "samples": good[:-3]})
    add("samples duplicate", reconstruct(*integral, "--oversample", "1"), doc={"j": 0.5, "samples": good + good[5:6]})
    add("samples malformed", reconstruct(*integral, "--oversample", "1"), doc={"j": 0.5, "samples": good[:10] + [{"m": 0.5}] + good[10:]})
    add("samples string w", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": good[:3] + [dict(good[3], w="x")] + good[4:]})
    add("samples numeric string w", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": good[:3] + [dict(good[3], w=str(good[3]["w"]))] + good[4:]})
    add("samples boolean m", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": good[:3] + [dict(good[3], m=True)] + good[4:]})
    add("samples bad projection", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": good[:4] + [dict(good[4], m=1.5)] + good[5:]})
    add("samples off the grid", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": good[:4] + [dict(good[4], theta=good[4]["theta"] + 1e-6)] + good[5:]})
    add("samples non-finite w", reconstruct(*integral, "--oversample", "1"),
        text=json.dumps({"j": 0.5, "samples": good[:6] + [dict(good[6], w=math.nan)] + good[7:]}))
    negative = [dict(r, w=r["w"] + (0.6 if r["m"] > 0 else -0.6)) for r in good]
    add("samples negative", reconstruct(*integral, "--oversample", "1"), doc={"j": 0.5, "samples": negative})
    unnormalized = [dict(r, w=0.75) for r in good]
    add("samples unnormalized", reconstruct(*integral, "--oversample", "1"), doc={"j": 0.5, "samples": unnormalized})
    # Every sample lies in [0, 1] and each pair sums to 1, but the Bloch
    # vector is 3e-10 longer than 1/2: the result fails validation.
    outside = [x * (0.5 + 3e-10) / math.hypot(*bloch) for x in bloch]
    add("samples just outside the Bloch ball", reconstruct(*integral, "--oversample", "1"),
        doc={"j": 0.5, "samples": _half_samples(outside)}, kind="numeric")
    add("samples unnormalized large tol", reconstruct(*integral, "--oversample", "1", "--tol", "0.6"),
        doc={"j": 0.5, "samples": unnormalized}, kind="numeric")

    # -- from-w-integral through the kernel: dims 2-13
    for spec in ("up_x", "up_y", "unpolarized", "bloch=0.1,0.2,0.3"):
        add(f"integral state {spec}", reconstruct(*integral), doc={"j": 0.5, "state": spec}, kind="numeric")
    add("integral state up_z oversample 4", reconstruct(*integral, "--oversample", "4"),
        doc={"j": 0.5, "state": "up_z"}, kind="numeric")
    rng = np.random.default_rng(20261019)
    for dim in range(1, 14):
        j = (dim - 1) / 2
        jdoc = int(j) if j == int(j) else j
        states = {
            "mixed": _random_mixed(rng, dim),
            "pure": _random_pure(rng, dim),
            "top": _top(dim),
            "maximally mixed": np.eye(dim) / dim,
        }
        for name, rho in states.items():
            doc = {"j": jdoc, "rho": _complex_rows(rho)}
            add(f"integral dim {dim} {name}", reconstruct(*integral), doc=doc, kind="numeric")
        doc = {"j": jdoc, "rho": _complex_rows(states["mixed"])}
        for oversample in (1, 3) if dim in (2, 5, 8, 13) else (1,):
            add(f"integral dim {dim} mixed oversample {oversample}",
                reconstruct(*integral, "--oversample", str(oversample)), doc=doc, kind="numeric")
        if dim in (3, 4):
            # See the module docstring: rounding picks the outcome.
            add(f"integral dim {dim} maximally mixed tol 0", reconstruct(*integral, "--tol", "0"),
                doc={"j": jdoc, "rho": _complex_rows(states["maximally mixed"])}, kind="numeric", either=True)
    add("integral dim 5 mixed oversample 4", reconstruct(*integral, "--oversample", "4"),
        doc={"j": 2, "rho": _complex_rows(_random_mixed(rng, 5))}, kind="numeric")
    add("integral dim 21 top", reconstruct(*integral, "--oversample", "1"), doc={"j": 10, "rho": _complex_rows(_top(21))}, kind="numeric")
    add("integral dim 51 top at the spin bound", reconstruct(*integral, "--oversample", "1"),
        doc={"j": cli.MAX_SPIN, "rho": _complex_rows(_top(2 * cli.MAX_SPIN + 1))}, kind="numeric")
    add("integral dim 8 mixed written to a file", reconstruct(*integral, "--output", OUTPUT),
        doc={"j": 3.5, "rho": _complex_rows(_random_mixed(rng, 8))}, kind="numeric")
    return cases


# ---------------------------------------------------------------- running


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _input_bytes(case):
    if "input" in case:
        return json.dumps(case["input"]).encode()
    if "input_text" in case:
        return case["input_text"].encode() * case.get("input_repeat", 1)
    if "input_hex" in case:
        return bytes.fromhex(case["input_hex"])
    return None


def run_case(case) -> dict:
    """Run one case through ``cli.main`` in a fresh working directory."""
    previous = os.getcwd()
    columns = os.environ.get("COLUMNS")
    # argparse wraps help text to the terminal width.
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            data = _input_bytes(case)
            if data is not None:
                Path(INPUT).write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(case["argv"]))
            written = Path(OUTPUT)
            output = written.read_bytes() if written.exists() else None
        finally:
            os.chdir(previous)
            if columns is None:
                os.environ.pop("COLUMNS", None)
            else:
                os.environ["COLUMNS"] = columns
    outcome = {"exit": code, "stdout_sha256": _sha256(out.getvalue()), "stderr": err.getvalue()}
    if output is not None:
        outcome["output_sha256"] = _sha256(output)
    text = out.getvalue() or (output.decode() if output is not None else "")
    if case["class"] == "numeric" and text:
        skeleton, numbers = _split_numbers(text)
        stride = -(-len(numbers) // MAX_NUMBERS)
        outcome["skeleton_sha256"] = _sha256(skeleton)
        outcome["numbers_count"] = len(numbers)
        outcome["numbers"] = numbers[::stride]
    return outcome


def _split_numbers(text: str):
    """The output with every number under its top-level ``NUMERIC_KEYS`` set
    to 0.0 (every number, for CSV), and those numbers in order."""
    if not text.startswith("{"):
        return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]
    numbers = []

    def zero(value):
        if isinstance(value, float):
            numbers.append(value)
            return 0.0
        if isinstance(value, list):
            return [zero(v) for v in value]
        if isinstance(value, dict):
            return {k: zero(v) for k, v in sorted(value.items())}
        return value

    doc = json.loads(text)
    for key in NUMERIC_KEYS:
        if key in doc:
            doc[key] = zero(doc[key])
    return json.dumps(doc, sort_keys=True), numbers


def _close(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= NUMBER_TOL


def _same_text(recorded: str, replayed: str) -> bool:
    """Equal once each number is compared at ``NUMBER_TOL``."""
    if _NUMBER.sub("#", recorded) != _NUMBER.sub("#", replayed):
        return False
    pairs = zip(_NUMBER.findall(recorded), _NUMBER.findall(replayed))
    return all(_close(float(a), float(b)) for a, b in pairs)


def _kind(outcome) -> str:
    return "document" if "numbers" in outcome else "error"


def _either_allowed(outcome) -> bool:
    if "numbers" in outcome:
        # a document reports passed: true (exit 0) or passed: false (exit 3)
        return outcome["exit"] in (0, 3)
    return outcome["exit"] == 3 and outcome["stderr"].startswith(
        "error: tomogram samples are not a normalized"
    )


def compare(case, recorded, replayed, same_python=True) -> list:
    """The differences between a recorded outcome and a replayed one that
    the case's class does not allow; empty when they agree."""
    kind = case["class"]
    if kind == "argparse" and not same_python:
        return [] if recorded["exit"] == replayed["exit"] else ["exit code"]
    if kind != "numeric":
        return [key for key in ("exit", "stdout_sha256", "stderr", "output_sha256")
                if recorded.get(key) != replayed.get(key)]
    if case.get("either") and (_kind(recorded), recorded["exit"]) != (_kind(replayed), replayed["exit"]):
        return [] if _either_allowed(replayed) else ["outcome neither allowed one"]
    problems = []
    if recorded["exit"] != replayed["exit"]:
        problems.append("exit code")
    if _kind(recorded) != _kind(replayed):
        return problems + ["kind of output"]
    if not _same_text(recorded["stderr"], replayed["stderr"]):
        problems.append("stderr")
    if "numbers" in recorded:
        if recorded["skeleton_sha256"] != replayed["skeleton_sha256"]:
            problems.append("output apart from its numbers")
        a, b = recorded["numbers"], replayed["numbers"]
        if recorded["numbers_count"] != replayed["numbers_count"] or not all(map(_close, a, b)):
            problems.append("numbers beyond tolerance")
    return problems


def generate() -> dict:
    cases = build_cases()
    names = [case["name"] for case in cases]
    if len(set(names)) != len(names):
        raise ValueError("case names must be unique")
    return {
        "platform": platform_record(),
        "number_tol": NUMBER_TOL,
        "cases": [dict(case, outcome=run_case(case)) for case in cases],
    }


def dumps(corpus) -> str:
    """One case per line, so that a diff names the cases that changed."""
    head = {key: corpus[key] for key in ("platform", "number_tol")}
    # Unsorted: an input document keeps its key order, which messages show.
    lines = [json.dumps(case, allow_nan=False) for case in corpus["cases"]]
    body = ",\n".join(lines)
    return json.dumps(head, indent=1, sort_keys=True)[:-2] + ',\n "cases": [\n' + body + "\n]}\n"


def load() -> dict:
    return json.loads(CORPUS.read_text())


def _definition(case) -> dict:
    return {key: value for key, value in case.items() if key != "outcome"}


def _similar(a, b) -> bool:
    """Equal, except that floats need only lie within ``NUMBER_TOL``."""
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_similar(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_similar, a, b))
    return a == b


def _minor(version: str) -> str:
    return version.rsplit(".", 1)[0]


def check(committed) -> list:
    """What keeps ``committed`` from being the corpus this script writes
    here; empty when nothing does."""
    platform_now = platform_record()
    same_platform = committed["platform"] == platform_now
    same_python = _minor(committed["platform"]["python"]) == _minor(platform_now["python"])
    fresh = build_cases()
    problems = []
    if committed["number_tol"] != NUMBER_TOL:
        problems.append("number_tol differs")
    if [case["name"] for case in committed["cases"]] != [case["name"] for case in fresh]:
        problems.append("the list of case names differs from the one this script builds")
    rewritten = []
    for case, built in zip(committed["cases"], fresh):
        definition = _definition(case)
        if not (definition == built if same_platform else _similar(definition, built)):
            problems.append(f"{case['name']}: the case differs from the one this script builds")
        replayed = run_case(case)
        rewritten.append(dict(built, outcome=replayed))
        diffs = compare(case, case["outcome"], replayed, same_python)
        if same_platform and replayed != case["outcome"] and not diffs:
            diffs = ["outcome not bit-identical on the recording platform"]
        problems.extend(f"{case['name']}: {diff}" for diff in diffs)
    if same_platform and not problems:
        text = dumps({"platform": platform_now, "number_tol": NUMBER_TOL, "cases": rewritten})
        if CORPUS.read_text() != text:
            problems.append("corpus.json is not the text this script writes")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with corpus.json instead of writing it")
    args = parser.parse_args(argv)
    if not args.check:
        corpus = generate()
        CORPUS.write_text(dumps(corpus))
        print(f"wrote {len(corpus['cases'])} cases to {CORPUS.name}")
        return 0
    committed = load()
    problems = check(committed)
    for problem in problems:
        print(problem)
    print(f"{len(committed['cases'])} cases, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
