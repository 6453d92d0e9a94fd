#!/usr/bin/env python3
"""spintomo benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload half-maps --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with code 2 if that is missing.  Workloads:

* ``half-maps``    the spin-1/2 chain of the README quick start, in process
* ``spinj-recon``  spin-j integral reconstruction, j from 1/2 to 6
* ``cli-oneshot``  one fresh ``python -m spintomo`` process per operation

A run is a fixed number of whole cycles of operations, sized so that it
takes about ``--seconds`` on the reference machine (2 vCPU Intel Xeon at
2.0 GHz, Python 3.11, numpy 2.4); the same ``--seconds`` therefore gives
every commit the same work and the same tail percentile.  The gated
timings (``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``, ``setup_s``) are
scaled to the reference host speed by the calibration kernel of
``speed.py``, run between operations and between set-up probes on the
same CPU; the raw timings are printed and stored beside them.
With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` cycles alternate between untraced
and traced, the layer measurements of ``layers.py`` follow, and the JSON
object holds the per-layer metrics.  Full results, spans and span
summaries go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("half-maps", "spinj-recon", "cli-oneshot")
SETUP_PROBES = 9
# The loop stops after this many times --seconds even if cycles remain, so a
# much slower commit still finishes within the run time limit.
DEADLINE_FACTOR = 4


def _import_package():
    """Import spintomo from this checkout's ``src/``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "spintomo" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {src / 'spintomo'}; run from a spintomo checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import spintomo

    if Path(spintomo.__file__).resolve().parent != (src / "spintomo").resolve():
        sys.stderr.write(f"error: imported spintomo from {spintomo.__file__}, not from {src}\n")
        sys.exit(2)
    return spintomo


# ---------------------------------------------------------------- probes
# Each probe runs in a fresh process and prints one JSON line with spans
# timed by perf_counter_ns, which is comparable across processes.


def _probe_setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    _import_package()
    t1 = time.perf_counter()
    import inputs
    import workloads

    bench = workloads.WORKLOADS[workload](seed, inputs.Digest(), ROOT, OUT / f"work-{os.getpid()}")
    t2 = time.perf_counter()
    bench.warm_up()
    return {"setup_s": (t1 - t0) + (time.perf_counter() - t2)}


def _probe_couplings() -> dict:
    st = _import_package()
    import layers

    spans, failures = [], []
    for d in layers.GI_DIMS:
        j = (d - 1) / 2.0
        ms = st.m_values(j)
        start = time.perf_counter_ns()
        diag = {}
        for j3 in range(d):
            for m in ms:
                diag[j3, m] = st.wigner_3j(j, j, j3, m, -m, 0)
            for m1 in ms:
                for m2 in ms:
                    if abs(m2 - m1) <= j3:
                        st.wigner_3j(j, j, j3, m1, -m2, m2 - m1)
        spans.append([f"general_inversion.couplings_cold.dim{d}", start, time.perf_counter_ns()])
        for j3 in range(d):
            # Orthogonality: sum over m of (2 j3 + 1) (j j j3; m -m 0)^2 = 1.
            dev = abs(sum((2 * j3 + 1) * diag[j3, m] ** 2 for m in ms) - 1.0)
            if not dev <= 1e-10:
                failures.append(f"dim {d}, j3 {j3}: 3j orthogonality off by {dev:.3e}")
    return {"spans": spans, "failures": failures}


def _probe_first_recon(dim: int, seed: int) -> dict:
    st = _import_package()
    import numpy as np

    import inputs

    rho = inputs.density_j(np.random.default_rng([seed, 5, dim]), dim)
    start = time.perf_counter_ns()
    out = st.reconstruct_density_j(st.w_callable_from_density(rho), (dim - 1) / 2.0)
    end = time.perf_counter_ns()
    err = float(np.abs(out - rho).max())
    failures = [] if err <= inputs.TOL else [f"first reconstruction at dim {dim} deviates by {err:.3e}"]
    return {"spans": [[f"general_inversion.first_recon.dim{dim}", start, end]], "failures": failures}


def _probe_main(argv) -> int:
    p = argparse.ArgumentParser(prog="run.py --probe")
    p.add_argument("kind", choices=("setup", "couplings", "first-recon"))
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int)
    a = p.parse_args(argv)
    if a.kind == "setup":
        result = _probe_setup(a.workload, a.seed)
    elif a.kind == "couplings":
        result = _probe_couplings()
    else:
        result = _probe_first_recon(a.dim, a.seed)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- one workload


def _setup_samples(workload: str, seed: int):
    """Set-up time measured in fresh processes, ``SETUP_PROBES`` times;
    returns the raw samples and their speed factors."""
    from speed import Speedometer
    from workloads import package_env

    env = package_env(ROOT)
    samples = []
    speedometer = Speedometer(interval_s=0.0)
    for _ in range(SETUP_PROBES):
        if workload == "cli-oneshot":
            # What a shell user pays before any verb runs.  The output is
            # captured because then the parent wakes when the child's pipes
            # close; a bare wait with a timeout polls in steps of up to 50 ms.
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import spintomo"],
                env=env, cwd=ROOT, capture_output=True, check=True, timeout=60,
            )
            samples.append(time.perf_counter() - t0)
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--probe", "setup"]
            proc = subprocess.run(
                cmd + ["--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, cwd=ROOT, check=True, timeout=120,
            )
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        speedometer.after_op()
    return samples, speedometer.factors


def _tail(latencies):
    """The latency at the highest percentile that has ten samples beyond it."""
    s = sorted(latencies)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


def latency_stats(ops, block=None) -> dict:
    """Throughput, median and tail of per-op (latency in seconds, kind).

    The median is taken over kinds of each kind's median latency.  Every
    kind occurs equally often, so this is the plain median, except that it
    does not jump across the gap between two kinds of op when the middle of
    the sorted latencies falls between them, as it does with eight kinds.
    With ``block``, the tail is taken within each run of ``block`` ops and
    the median over those runs is reported.
    """
    latencies = [t for t, _ in ops]
    by_kind: dict = {}
    for t, kind in ops:
        by_kind.setdefault(kind, []).append(t)
    p50_by_kind = {kind: statistics.median(v) * 1e3 for kind, v in by_kind.items()}
    n = len(latencies)
    block = block or n
    tails = [_tail(latencies[i : i + block]) for i in range(0, n - block + 1, block)]
    return {
        "ops": n,
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(p50_by_kind.values()),
        "p50_ms_by_kind": p50_by_kind,
        "op_tail_ms": statistics.median(t for t, _ in tails) * 1e3,
        "tail_percentile": tails[0][1],
        "tail_block_ops": block,
        "tail_blocks": len(tails),
    }


def _peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux.  For cli-oneshot the work happens in
    # child processes, and RUSAGE_CHILDREN reports the largest of them.
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    _import_package()
    import envinfo
    import inputs
    import workloads
    from speed import REF_S, Speedometer
    from tracing import NullTracer, Tracer

    env = envinfo.start_record(ROOT)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup, setup_factors = ([], []) if trace else _setup_samples(workload, seed)
        digest = inputs.Digest()
        bench = workloads.WORKLOADS[workload](seed, digest, ROOT, workdir)
        bench.warm_up()
        cycles = max(2, math.ceil(seconds / bench.nominal_cycle_s))
        tracer = Tracer()
        null = NullTracer()
        # Traced runs alternate untraced and traced cycles, so drift in the
        # machine's speed falls on both halves of the overhead estimate.
        pick = (lambda c: tracer if c % 2 else null) if trace else (lambda c: null)
        deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
        speedometer = Speedometer()
        latencies, failures, max_err = workloads.run_loop(bench, cycles, pick, deadline, speedometer)
        scaled = [(t * f, on, k) for (t, on, k), f in zip(latencies, speedometer.factors)]
        untraced = latency_stats([(t, bench.kinds[k]) for t, on, k in scaled if not on], bench.tail_block_ops)
        untraced_raw = latency_stats([(t, bench.kinds[k]) for t, on, k in latencies if not on], bench.tail_block_ops)
        attempted = len(latencies)
        result = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "cycles_planned": cycles,
            "ops_per_cycle": bench.cycle_len,
            "truncated": attempted < cycles * bench.cycle_len,
            "input_sha256": digest.hexdigest(),
            "attempted": attempted,
            "failed": len(failures),
            "fail_ratio": len(failures) / attempted,
            "max_abs_err": max_err,
            "failures": failures[:20],
            "untraced": untraced,
            "untraced_raw": untraced_raw,
            "speed": {
                "ref_s": REF_S,
                "kernel_s_median": statistics.median(speedometer.kernel_times),
                "kernel_passes": len(speedometer.kernel_times),
            },
        }
        if trace:
            import layers

            traced = latency_stats([(t, bench.kinds[k]) for t, on, k in scaled if on], bench.tail_block_ops)
            slowdown = untraced["ops_per_s"] / traced["ops_per_s"]
            result["traced"] = traced
            result["trace_slowdown"] = slowdown
            layer_tracer = Tracer()
            metrics, result["layer_failures"] = layers.measure(layer_tracer, ROOT, workdir, seed, slowdown)
            _write_trace(workload, seed, tracer, layer_tracer, metrics, result)
        else:
            # Reported in the table but not gated: fail_ratio and
            # max_abs_err, because a failure or a deviation above TOL
            # already makes the run incorrect.
            metrics = {
                "ops_per_s": (untraced["ops_per_s"], "1/s"),
                "op_p50_ms": (untraced["op_p50_ms"], "ms"),
                "op_tail_ms": (untraced["op_tail_ms"], "ms"),
                "setup_s": (statistics.median(t * f for t, f in zip(setup, setup_factors)), "s"),
                "peak_rss_mb": (_peak_rss_mb(workload), "MiB"),
            }
            result["setup_samples_s"] = setup
            result["setup_speed_factors"] = setup_factors
            result["setup_s_raw"] = statistics.median(setup)
        result["correct"] = not failures and not result.get("layer_failures") and max_err <= inputs.TOL
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["environment"] = envinfo.finish_record(env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    _print_report(result, path)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def _write_trace(workload, seed, tracer, layer_tracer, metrics, result) -> None:
    import gzip

    stem = f"{workload}-seed{seed}"
    with gzip.open(OUT / f"trace-{stem}.json.gz", "wt") as fh:
        json.dump({"workload": tracer.to_doc(), "layers": layer_tracer.to_doc()}, fh, separators=(",", ":"))
    summary = {
        "workload": workload,
        "seed": seed,
        "trace_slowdown": result["trace_slowdown"],
        "untraced_ops_per_s": result["untraced"]["ops_per_s"],
        "traced_ops_per_s": result["traced"]["ops_per_s"],
        "workload_spans": tracer.summary(),
        "layer_spans": layer_tracer.summary(),
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"layers-{stem}.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _print_report(result: dict, path: Path) -> None:
    w = result["workload"]
    stats = result["untraced"]
    print(f"# {w}: seed {result['seed']}, {result['attempted']} ops in {result['cycles_planned']} cycles "
          f"of {result['ops_per_cycle']}, inputs sha256 {result['input_sha256'][:16]}")
    if result["truncated"]:
        print(f"# {w}: stopped at the deadline before all cycles ran")
    print(f"{w:12s} {'fail_ratio':28s} {result['fail_ratio']:.6g} 1")
    print(f"{w:12s} {'max_abs_err':28s} {result['max_abs_err']:.3e} 1")
    if result["trace"]:
        print(f"{w:12s} {'op_p50_ms':28s} {stats['op_p50_ms']:.6g} ms")
    raw = result["untraced_raw"]
    print(f"# {w}: timings at reference host speed; raw: ops_per_s {raw['ops_per_s']:.6g} 1/s, "
          f"op_p50_ms {raw['op_p50_ms']:.6g} ms, op_tail_ms {raw['op_tail_ms']:.6g} ms"
          + (f", setup_s {result['setup_s_raw']:.6g} s" if "setup_s_raw" in result else "")
          + f"; calibration kernel median {result['speed']['kernel_s_median'] * 1e3:.3f} ms"
          f" (reference {result['speed']['ref_s'] * 1e3:.3f} ms)")
    if result["trace"]:
        print(f"# {w}: tracing overhead: untraced {stats['ops_per_s']:.4g} ops/s, traced "
              f"{result['traced']['ops_per_s']:.4g} ops/s, slowdown {result['trace_slowdown']:.4f}")
    else:
        print(f"# {w}: op_tail_ms is p{stats['tail_percentile']:.2f} (10 ops beyond) of "
              f"{stats['tail_block_ops']} ops, median over {stats['tail_blocks']} such blocks")
    for name, m in result["metrics"].items():
        print(f"{w:12s} {name:28s} {m['value']:.6g} {m['unit']}")
    for failure in (result["failures"] + result.get("layer_failures", []))[:5]:
        print(f"# {w}: FAILED {failure}")
    print(f"# {w}: full result in {path.relative_to(ROOT)}")


# ---------------------------------------------------------------- all


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh process, then one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        full = json.loads((OUT / f"result-{w}-seed{seed}-trace{int(trace)}.json").read_text())
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
        rows.append((w, "fail_ratio", full["fail_ratio"], "1"))
        rows.append((w, "max_abs_err", full["max_abs_err"], "1"))
        if trace:
            rows.append((w, "op_p50_ms", full["untraced"]["op_p50_ms"], "ms"))
        rows += [(w, name, m["value"], m["unit"]) for name, m in last["metrics"].items()]
    print("# summary")
    for w, name, value, unit in rows:
        print(f"{w:12s} {name:28s} {value:.6g} {unit}")
    print(json.dumps(combined))
    return 0


def _pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    On a shared host each vCPU's speed drifts on its own, so an op and the
    calibration kernel around it must run on the same one to be compared.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _pin_to_one_cpu()
    # Commands and in-process CLI calls name their input files relative to
    # the checkout root.
    os.chdir(ROOT)
    if argv[:1] == ["--probe"]:
        return _probe_main(argv[1:])
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True, help="seed of the benchmark's own input generator")
    p.add_argument("--seconds", type=int, default=20, help="sizes the run; see above")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    if a.workload == "all":
        return run_all(a.seed, a.seconds, bool(a.trace))
    return run_workload(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
