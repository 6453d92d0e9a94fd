"""The three workloads: inputs, one operation, and the check of its result.

Each workload runs as one client in a closed loop: the next operation
starts only when the previous one has returned.  A cycle is a fixed list
of operations; a run is a fixed number of whole cycles, so two commits
measured with the same ``--seconds`` do exactly the same work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs as I
import spintomo as st
from tracing import NullTracer


class CheckFailed(Exception):
    """An operation returned, but its result is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _w_value_at(rho, theta, phi):
    return st.w_value(rho, st.Direction(theta=theta, phi=phi))


class HalfMaps:
    """The spin-1/2 chain of the README quick start, one Bloch vector per op."""

    name = "half-maps"
    pool = 256
    n_dirs = 8
    warmup_ops = 64
    # Every op costs the same, so over a whole run the tenth-slowest op only
    # measures the machine's rarest stalls; the tail is taken per cycle.
    tail_block_ops = pool
    # Seconds per cycle on the reference machine (2 vCPU Intel Xeon at
    # 2.0 GHz, Python 3.11, numpy 2.4); sizes the run from --seconds.
    nominal_cycle_s = 0.33

    def __init__(self, seed: int, digest: I.Digest, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.bloch = I.bloch_pool(rng, self.pool)
        self.theta, self.phi = I.directions(rng, (self.pool, self.n_dirs))
        for arr in (self.bloch, self.theta, self.phi):
            digest.add(arr)
        self.rho_ref = I.density_ref(self.bloch)
        self.table_ref = I.table_ref(self.rho_ref)
        n = I.unit_vectors(self.theta, self.phi)
        self.bn = np.einsum("kdi,ki->kd", n, self.bloch)
        self._theta = self.theta.tolist()
        self._phi = self.phi.tolist()
        self.cycle_len = self.pool
        self.kinds = ["op"] * self.pool

    def warm_up(self):
        for k in range(self.warmup_ops):
            self.op(0, k, _NULL)

    def op(self, cycle, k, t):
        b = self.bloch[k]
        rho = t.call("spin_core.density_from_bloch", st.density_from_bloch, b)
        table = t.call("quasiprob.p_from_density", st.p_from_density, rho)
        adm = t.call("quasiprob.check_admissibility", st.check_admissibility, table)
        rho_p = t.call("quasiprob.density_from_p", st.density_from_p, table)
        th, ph = self._theta[k], self._phi[k]
        ws = [t.call("tomography.w_value", _w_value_at, rho, th[i], ph[i]) for i in range(self.n_dirs)]
        triple = t.call("tomography.w_axes", st.w_axes, rho)
        rho_w = t.call("tomography.density_from_w_axes", st.density_from_w_axes, triple)
        p_w = t.call("radon_link.p_from_w", st.p_from_w, triple)
        p_o = t.call("quasiprob.p_oracle", st.p_oracle, rho)
        radon = t.call("radon_link.verify_radon_consistency", st.verify_radon_consistency, rho)
        return rho, table, adm, rho_p, ws, triple, rho_w, p_w, p_o, radon

    def check(self, cycle, k, out) -> float:
        rho, table, adm, rho_p, ws, triple, rho_w, p_w, p_o, radon = out
        ref = self.rho_ref[k]
        tref = self.table_ref[k]
        b = self.bloch[k]
        errs = [float(np.abs(np.asarray(m) - ref).max()) for m in (rho, rho_p, rho_w)]
        for tab in (table, p_w, p_o):
            errs.append(max(abs(tab[v] - tref[i]) for i, v in enumerate(I.VERTICES)))
        for i, w in enumerate(ws):
            bn = self.bn[k, i]
            errs.append(max(abs(w.w_plus - (0.5 + bn)), abs(w.w_minus - (0.5 - bn))))
        axes = (triple.wx_plus, triple.wy_plus, triple.wz_plus)
        errs.append(max(abs(w - (0.5 + bk)) for w, bk in zip(axes, b)))
        errs.append(radon.max_abs_delta)
        _require(adm.passed, "check_admissibility refused a physical table")
        _require(radon.passed, "verify_radon_consistency failed")
        return max(errs)


class SpinJRecon:
    """Integral reconstruction round-robin over eight spins up to j = 6."""

    name = "spinj-recon"
    dims = (2, 3, 4, 5, 7, 8, 11, 13)
    per_dim = 4
    tail_block_ops = None
    nominal_cycle_s = 0.32

    def __init__(self, seed: int, digest: I.Digest, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.states = {d: [I.density_j(rng, d) for _ in range(self.per_dim + 1)] for d in self.dims}
        for d in self.dims:
            for m in self.states[d]:
                digest.add(m)
        self.cycle_len = len(self.dims)
        self.kinds = [f"dim{d}" for d in self.dims]

    def warm_up(self):
        # One cold reconstruction per spin fills the 3j and rotation caches.
        for d in self.dims:
            self._reconstruct(self.states[d][self.per_dim], d, _NULL)

    @staticmethod
    def _reconstruct(rho, dim, t):
        family = t.call("general_inversion.w_callable_from_density", st.w_callable_from_density, rho)
        return t.call(f"general_inversion.reconstruct.dim{dim}", st.reconstruct_density_j, family, (dim - 1) / 2.0)

    def op(self, cycle, k, t):
        dim = self.dims[k]
        return self._reconstruct(self.states[dim][cycle % self.per_dim], dim, t)

    def check(self, cycle, k, out) -> float:
        dim = self.dims[k]
        err = float(np.abs(out - self.states[dim][cycle % self.per_dim]).max())
        _require(st.validate_density_j(out).passed, f"dim {dim}: reconstruction fails validate_density_j")
        return err


def package_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _schema_validator(root: Path):
    import jsonschema

    schema = json.loads((root / "src/spintomo/schemas/output_document.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


class CliInputs:
    """The command lines of one cli cycle and the files they read."""

    def __init__(self, seed: int, digest: I.Digest, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        bloch = self.bloch = I.bloch_pool(rng, 20)[:4]
        self.rho = I.density_ref(bloch)
        self.table = I.table_ref(self.rho)
        digest.add(bloch)
        self.sources = {d: I.density_j(rng, d) for d in (3, 5, 7, 11)}
        workdir.mkdir(parents=True, exist_ok=True)
        self.input_bytes = {}

        def write(name, doc):
            data = json.dumps(doc, sort_keys=True).encode()
            digest.add(data)
            (workdir / name).write_bytes(data)
            self.input_bytes[name] = len(data)
            # Relative to the checkout root, the working directory of every
            # command, so the digest does not depend on where the checkout is.
            return str((workdir / name).relative_to(root))

        def spec(b):
            return "bloch=" + ",".join(repr(float(x)) for x in b)

        axes = {"wx_plus": 0.5 + bloch[2][0], "wy_plus": 0.5 + bloch[2][1], "wz_plus": 0.5 + bloch[2][2]}
        verify = write("verify.json", {"p_table": I.table_obj(self.table[2]), "w_axes": axes})
        from_p = write("table.json", {"p_table": I.table_obj(self.table[3])})
        recon = ["reconstruct", "--mode", "from-w-integral", "--input"]
        self.commands = {
            "p-table": ["p-table", "--state", spec(bloch[0])],
            "w-grid": ["w", "--state", spec(bloch[1]), "--grid", "24", "--axes"],
            "verify": ["verify", "--input", verify],
            "from-p": ["reconstruct", "--mode", "from-p", "--input", from_p],
        }
        for d in (3, 5, 7):
            self.commands[f"samples-dim{d}"] = recon + [write(f"samples-dim{d}.json", I.samples_doc(self.sources[d]))]
        rho11 = {"j": 5.0, "rho": I.matrix_obj(self.sources[11])}
        self.commands["rho-dim11"] = recon + [write("rho-dim11.json", rho11)]
        self.commands["sweep"] = ["sweep", "--trials", "500", "--seed", str(seed)]
        digest.add(self.commands)
        self.kinds = list(self.commands)

    def check(self, kind, doc) -> float:
        """Largest deviation of a document from the benchmark's reference."""
        if kind == "p-table":
            tab = {(e["c"], e["b"], e["a"]): complex(e["re"], e["im"]) for e in doc["p_table"]}
            _require(doc["admissibility"]["passed"], "p-table: admissibility failed")
            err = max(abs(tab[v] - self.table[0][i]) for i, v in enumerate(I.VERTICES))
            return max(err, float(np.abs(I.matrix_from_obj(doc["state"]["rho"]) - self.rho[0]).max()))
        if kind == "w-grid":
            b = self.bloch[1]
            t = doc["tomograms"]
            _require(len(t) == 24 * 24, "w-grid: wrong number of tomograms")
            bn = I.unit_vectors([x["theta"] for x in t], [x["phi"] for x in t]) @ b
            wp = np.array([x["w_plus"] for x in t])
            wm = np.array([x["w_minus"] for x in t])
            axes = doc["w_axes"]
            err = max(float(np.abs(wp - 0.5 - bn).max()), float(np.abs(wm - 0.5 + bn).max()))
            got = (axes["wx_plus"], axes["wy_plus"], axes["wz_plus"])
            return max(err, *(abs(w - 0.5 - bk) for w, bk in zip(got, b)))
        if kind in ("verify", "sweep"):
            _require(doc["passed"] is True, f"{kind}: document reports passed = false")
            return 0.0
        source = self.rho[3] if kind == "from-p" else self.sources[int(kind.rsplit("dim", 1)[1])]
        _require(doc["validation"]["passed"], f"{kind}: result fails validation")
        return float(np.abs(I.matrix_from_obj(doc["rho"]) - source).max())


class CliOneshot:
    """One fresh ``python -m spintomo`` process per operation."""

    name = "cli-oneshot"
    tail_block_ops = None
    # At --seconds 20 this gives 7 cycles of 9 ops: the ten slowest are the 7
    # sweeps and 3 rho-dim11 ops, so the tail is the median rho-dim11 op and
    # not a value on the boundary between two kinds of op.
    nominal_cycle_s = 3.1

    def __init__(self, seed: int, digest: I.Digest, root: Path, workdir: Path):
        self.root = root
        self.inputs = CliInputs(seed, digest, root, workdir)
        self.kinds = self.inputs.kinds
        self.cycle_len = len(self.kinds)
        self.env = package_env(self.root)
        self.validator = _schema_validator(self.root)
        self.first_output: dict = {}

    def run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "spintomo", *args],
            capture_output=True,
            env=self.env,
            cwd=self.root,
            timeout=120,
        )

    def warm_up(self):
        # Fills the file cache, so the first timed cycle is not the only one
        # that reads the interpreter and package from disk.
        for k in range(self.cycle_len):
            self.op(-1, k, _NULL)

    def op(self, cycle, k, t):
        kind = self.kinds[k]
        return t.call(f"cli.{kind}", self.run, self.inputs.commands[kind])

    def check(self, cycle, k, proc) -> float:
        kind = self.kinds[k]
        _require(proc.returncode == 0, f"{kind}: exit code {proc.returncode}: {proc.stderr[-300:]!r}")
        first = self.first_output.setdefault(kind, proc.stdout)
        _require(proc.stdout == first, f"{kind}: output differs from the first cycle")
        doc = json.loads(proc.stdout)
        errors = list(self.validator.iter_errors(doc))
        _require(not errors, f"{kind}: schema violation: {errors[:1]}")
        return self.inputs.check(kind, doc)


_NULL = NullTracer()

WORKLOADS = {w.name: w for w in (HalfMaps, SpinJRecon, CliOneshot)}


def run_loop(workload, cycles: int, tracer_for_cycle, deadline: float, speedometer):
    """Run whole cycles; returns per-op (latency_s, traced, index in cycle),
    the failures and the largest deviation from the references.  The
    speedometer is told of every op, outside its timing."""
    latencies = []
    failures = []
    max_err = 0.0
    op_id = 0
    for c in range(cycles):
        if c >= 2 and time.perf_counter() > deadline:
            break
        tracer = tracer_for_cycle(c)
        for k in range(workload.cycle_len):
            tracer.begin_op(op_id)
            op_id += 1
            t0 = time.perf_counter()
            try:
                out = tracer.call(f"{workload.name}.op", workload.op, c, k, tracer)
            except Exception as exc:  # a raising op is a failed op, not a crash
                latencies.append((time.perf_counter() - t0, tracer.enabled, k))
                failures.append(f"op {c}/{k} raised {type(exc).__name__}: {exc}")
                speedometer.after_op()
                continue
            latencies.append((time.perf_counter() - t0, tracer.enabled, k))
            try:
                err = workload.check(c, k, out)
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                failures.append(f"op {c}/{k} check failed: {exc}")
                err = 0.0
            max_err = max(max_err, float(err))
            if not err <= I.TOL:
                failures.append(f"op {c}/{k} deviates by {err:.3e} > {I.TOL:g}")
            speedometer.after_op()
    speedometer.close()
    return latencies, failures, max_err
