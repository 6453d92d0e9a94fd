"""Per-layer metrics: the benchmark times calls into each module's public
functions, one span per call, and reports the median span of each name.

Every traced run measures the whole list, whatever its workload, so each
traced run reports the same metrics.  Costs that only a cold process shows
(3j couplings, the first reconstruction, interpreter start and import) are
timed in fresh child processes, which send their spans back.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs as I
import spintomo as st
from spintomo import cli
from workloads import CliOneshot, package_env

GI_DIMS = (2, 7, 13)
HALF_REPS = 256
CLI_REPS = 3
STARTS = 5

# (metric name without unit, function, which prepared argument it takes)
HALF_CALLS = (
    ("spin_core.density_from_bloch", st.density_from_bloch, "bloch"),
    ("spin_core.validate_density", st.validate_density, "rho"),
    ("quasiprob.p_from_density", st.p_from_density, "rho"),
    ("quasiprob.check_admissibility", st.check_admissibility, "table"),
    ("quasiprob.density_from_p", st.density_from_p, "table"),
    ("quasiprob.p_oracle", st.p_oracle, "rho"),
    ("tomography.w_value", st.w_value, "direction"),
    ("tomography.w_axes", st.w_axes, "rho"),
    ("tomography.density_from_w_axes", st.density_from_w_axes, "triple"),
    ("radon_link.p_from_w", st.p_from_w, "triple"),
    ("radon_link.verify_radon_consistency", st.verify_radon_consistency, "rho"),
)


def metric_names(kinds) -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(name + ".us", "us") for name, _, _ in HALF_CALLS]
    out.append(("sampling.random_density_matrices.us_per_state", "us"))
    for d in GI_DIMS:
        for stage, unit in (
            ("reconstruct", "ms"),
            ("sample", "ms"),
            ("integrate", "ms"),
            ("couplings_cold", "ms"),
            ("first_recon", "ms"),
            ("rotation_matrix_j", "us"),
        ):
            out.append((f"general_inversion.{stage}.dim{d}.{unit}", unit))
        out.append((f"general_inversion.w_evals.dim{d}", "count"))
    out += [("cli.python_start_s", "s"), ("cli.import_s", "s")]
    for kind in kinds:
        out += [(f"cli.{kind}.ms", "ms"), (f"cli.{kind}.inproc_ms", "ms"), (f"cli.{kind}.doc_bytes", "bytes")]
    out += [(f"cli.samples.dim{d}.input_bytes", "bytes") for d in (3, 5, 7)]
    out.append(("trace.slowdown", "1"))
    return out


def _probe(root: Path, args) -> dict:
    """Run ``run.py --probe ...`` in a fresh process; returns its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--probe", *args],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _eval_all(family, ms, grid):
    # The same node order as the package's own sampling loop.
    return [family(m, t, p) for m in ms for t in grid.theta_nodes for p in grid.phi_nodes]


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _lookup_family(rho, grid):
    """Tomogram values on the grid, served by dictionary lookup."""
    theta = grid.theta_nodes.tolist()
    phi = grid.phi_nodes.tolist()
    values = I.tomogram_ref(rho, np.array(theta), np.array(phi))
    dim = rho.shape[0]
    mi = {(dim - 1) / 2.0 - i: i for i in range(dim)}
    ti = {t: i for i, t in enumerate(theta)}
    pi = {p: i for i, p in enumerate(phi)}
    return lambda m1, t, p: values[mi[float(m1)], ti[float(t)], pi[float(p)]]


def _median(tracer, name, scale):
    return statistics.median(tracer.durations(name)) / scale


def _half_layers(tracer, rng, values):
    bloch = I.bloch_pool(rng, 64)
    theta, phi = I.directions(rng, 64)
    rhos = [st.density_from_bloch(b) for b in bloch]
    args = {
        "bloch": [(b,) for b in bloch],
        "rho": [(r,) for r in rhos],
        "table": [(st.p_from_density(r),) for r in rhos],
        "direction": [(r, st.Direction(theta=t, phi=p)) for r, t, p in zip(rhos, theta, phi)],
        "triple": [(st.w_axes(r),) for r in rhos],
    }
    # Interleaved, so a slow stretch of the machine touches every function.
    for rep in range(HALF_REPS):
        for name, fn, kind in HALF_CALLS:
            tracer.call(name, fn, *args[kind][rep % 64])
    for name, _, _ in HALF_CALLS:
        values[name + ".us"] = _median(tracer, name, 1e3)
    for rep in range(5):
        tracer.call("sampling.random_density_matrices", st.random_density_matrices, 500, rep)
    values["sampling.random_density_matrices.us_per_state"] = (
        _median(tracer, "sampling.random_density_matrices", 1e3) / 500
    )


def _gi_layers(tracer, rng, root, seed, values, failures):
    for d in GI_DIMS:
        j = (d - 1) / 2.0
        rho = I.density_j(rng, d)
        grid = st.build_quadrature(j)
        ms = st.m_values(j)
        lookup = _lookup_family(rho, grid)
        counted = _Counted(st.w_callable_from_density(rho))
        st.reconstruct_density_j(counted, j)  # warms every cache of this spin
        values[f"general_inversion.w_evals.dim{d}"] = counted.calls
        for _ in range({2: 10, 7: 5, 13: 3}[d]):
            family = st.w_callable_from_density(rho)
            out = tracer.call(f"general_inversion.reconstruct.dim{d}", st.reconstruct_density_j, family, j)
            tracer.call(f"general_inversion.sample.dim{d}", _eval_all, st.w_callable_from_density(rho), ms, grid)
            via_lookup = tracer.call(f"general_inversion.integrate.dim{d}", st.reconstruct_density_j, lookup, j)
            for got in (out, via_lookup):
                err = float(np.abs(got - rho).max())
                if not err <= I.TOL:
                    failures.append(f"dim {d}: reconstruction deviates by {err:.3e}")
        nodes = [st.EulerAngles(phi=p, theta=t) for t in grid.theta_nodes[:8] for p in grid.phi_nodes[:8]]
        for u in nodes:
            tracer.call(f"general_inversion.rotation_matrix_j.dim{d}", st.rotation_matrix_j, j, u)
    probes = [["couplings"]] + [["first-recon", "--dim", str(d), "--seed", str(seed)] for d in GI_DIMS]
    for args in probes:
        result = _probe(root, args)
        for name, start, end in result["spans"]:
            tracer.add(name, start, end)
        failures += result["failures"]
    for d in GI_DIMS:
        for stage in ("reconstruct", "sample", "integrate", "couplings_cold", "first_recon"):
            values[f"general_inversion.{stage}.dim{d}.ms"] = _median(tracer, f"general_inversion.{stage}.dim{d}", 1e6)
        values[f"general_inversion.rotation_matrix_j.dim{d}.us"] = _median(
            tracer, f"general_inversion.rotation_matrix_j.dim{d}", 1e3
        )


def _cli_layers(tracer, root, seed, workdir, values):
    env = package_env(root)
    code = "import time; t = time.perf_counter_ns(); import spintomo; print(t, time.perf_counter_ns())"
    for _ in range(STARTS):
        t0 = time.perf_counter_ns()
        # Captured output: see the set-up timing in run.py.
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, capture_output=True, check=True, timeout=60)
        tracer.add("cli.python_start", t0, time.perf_counter_ns())
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, check=True, timeout=60
        )
        start, end = map(int, out.stdout.split())
        tracer.add("cli.import", start, end)
    values["cli.python_start_s"] = _median(tracer, "cli.python_start", 1e9)
    values["cli.import_s"] = _median(tracer, "cli.import", 1e9)
    bench = CliOneshot(seed, I.Digest(), root, workdir)
    for rep in range(CLI_REPS + 1):
        for kind, args in bench.inputs.commands.items():
            if rep > 0:
                proc = tracer.call(f"cli.{kind}", bench.run, args)
                if proc.returncode != 0:
                    raise RuntimeError(f"cli {kind} exited {proc.returncode}: {proc.stderr[-300:]!r}")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                # The first pass warms the in-process caches and is not recorded.
                status = tracer.call(f"cli.{kind}.inproc", cli.main, args) if rep else cli.main(args)
            if status != 0:
                raise RuntimeError(f"cli.main {kind} returned {status}")
            values[f"cli.{kind}.doc_bytes"] = len(buf.getvalue().encode())
    for kind in bench.inputs.kinds:
        values[f"cli.{kind}.ms"] = _median(tracer, f"cli.{kind}", 1e6)
        values[f"cli.{kind}.inproc_ms"] = _median(tracer, f"cli.{kind}.inproc", 1e6)
    for d in (3, 5, 7):
        values[f"cli.samples.dim{d}.input_bytes"] = bench.inputs.input_bytes[f"samples-dim{d}.json"]
    return bench.inputs.kinds


def measure(tracer, root: Path, workdir: Path, seed: int, slowdown: float):
    """Run every layer measurement; returns ({name: (value, unit)}, failures)."""
    rng = np.random.default_rng([seed, 4])
    failures: list = []
    values = {"trace.slowdown": slowdown}
    tracer.begin_op(-1)
    _half_layers(tracer, rng, values)
    _gi_layers(tracer, rng, root, seed, values, failures)
    kinds = _cli_layers(tracer, root, seed, workdir, values)
    return {name: (values[name], unit) for name, unit in metric_names(kinds)}, failures
