"""Benchmark for qcost: one workload per run, one JSON result line.

    python3 qcbench/run.py --workload main-powered --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports qcost from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run of the same operations.  The last
line of standard output is the result object; run records and span
files go to ``qcbench/runs/``.  See README.md for the workloads, the
metrics and the measured spread.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is first imported;
# the set-up interpreters inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_SAMPLES = 3
WALL_KEY = "_qcbench_wall_s"
READY = "QCBENCH_SETUP_READY"

END_TO_END_UNITS = {"setup_s": "s", "audits_per_s": "1/s", "audit_p50_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("main-powered", "campaign-fullrank", "exact-checks",
                            "worked-examples"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    if not (SRC / "qcost" / "__init__.py").is_file():
        sys.exit(f"error: no qcost sources at {SRC}; run from a qcost checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


# ----------------------------------------------------------------------
# Set-up time, measured in fresh interpreters.
# ----------------------------------------------------------------------

def setup_only(args) -> None:
    """Child mode: imports, inputs and warm-up, then report the clock."""
    workloads = import_workloads()
    workdir = RUNS / f"setup-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        wl.warm_up()
        print(READY, time.perf_counter(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list[float]:
    """Interpreter start to ready-for-the-first-operation, in fresh
    processes.  perf_counter is CLOCK_MONOTONIC, shared by both sides."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        lines = [l for l in proc.stdout.splitlines() if l.startswith(READY)]
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: set-up run failed:\n{proc.stderr}")
        samples.append(float(lines[-1].split()[1]) - t0)
    return samples


# ----------------------------------------------------------------------
# The timed phase.
# ----------------------------------------------------------------------

@contextlib.contextmanager
def timed_campaign_samples():
    """Time each campaign sample inside ``run_campaign`` and hand the time
    back in the report."""
    import qcost.inequality as inequality
    original = inequality.campaign_sample

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        report = original(*args, **kwargs)
        report.extra[WALL_KEY] = time.perf_counter() - t0
        return report

    inequality.campaign_sample = timed
    try:
        yield
    finally:
        inequality.campaign_sample = original


@contextlib.contextmanager
def installed(tracer):
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def run_ops(ops, tracer):
    """Run every operation once, in order; None marks one that raised."""
    outputs, latencies = [], []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
            op = tracer.wrap(op, "bench.op")
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation that raises counts as failed
            print(f"operation {k} raised {exc!r}", file=sys.stderr)
            out = None
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    workloads = import_workloads()
    from spans import Tracer, layer_metrics
    import numpy as np

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / tag
    RUNS.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    wl.warm_up()
    ops = wl.ops()
    campaign = args.workload == "campaign-fullrank"
    tracer = Tracer() if args.trace else None
    span_cost = tracer.per_span_cost_s() if tracer is not None else 0.0

    cpu0 = os.times()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(installed(tracer))
        if campaign:
            stack.enter_context(timed_campaign_samples())
        t0 = time.perf_counter()
        outputs, latencies = run_ops(ops, None if campaign else tracer)
        wall = time.perf_counter() - t0
    cpu1 = os.times()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    extra = {}
    if campaign and outputs[0] is not None:
        latencies = [r.extra.pop(WALL_KEY) for r in outputs[0][0]]
        cpu = sum(cpu1[:4]) - sum(cpu0[:4])  # user + system, self and children
        extra["campaign_busy_ratio"] = cpu / (workloads.CAMPAIGN_WORKERS * wall)
    n_ops = wl.units if campaign else len(ops)
    t_check = time.perf_counter()
    failed, notes = wl.check(outputs)
    extra["check_s"] = time.perf_counter() - t_check
    for note in notes[:20]:
        print("check failed:", note, file=sys.stderr)

    mains = [r for r in (outputs[0][0] if campaign and outputs[0] else outputs)
             if hasattr(r, "quantities") and "E_A|BC_lower" in r.quantities]
    extra["powered_ratio"] = (sum(r.quantities["E_A|BC_lower"].value > 0 for r in mains)
                              / len(mains)) if mains else 0.0
    if args.workload == "exact-checks":
        extra["audit_p99_s"] = statistics.quantiles(latencies, n=100,
                                                    method="inclusive")[98]
    if args.workload == "worked-examples" and all(outputs):
        extra["eta_p50_s"] = statistics.median(o["eta_s"] for o in outputs)
        extra["ledger_p50_s"] = statistics.median(o["ledger_s"] for o in outputs)

    if tracer is None:
        setups = measure_setup(args)
        values = {
            "setup_s": statistics.median(setups),
            "audits_per_s": n_ops / wall,
            "audit_p50_s": statistics.median(latencies),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        extra["setup_samples_s"] = setups
    else:
        spans = tracer.arrays()
        values = layer_metrics(spans, n_ops, span_cost)
        values["inequality.campaign_busy_ratio"] = extra.get("campaign_busy_ratio", 0.0)
        values["inequality.powered_ratio"] = extra["powered_ratio"]
        values["trace.audits_per_s"] = n_ops / wall
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        np.savez(RUNS / f"{tag}.spans.npz", **spans)

    result = {"correct": failed == 0, "attempted": n_ops, "failed": failed,
              "metrics": metrics}
    with open(RUNS / f"{tag}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "extra": extra,
                   "latencies_s": latencies, "wall_s": wall,
                   "failures": notes}, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"qcbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n_ops} operations, {failed} failed, timed phase {wall:.2f} s")
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    for k in ("audit_p99_s", "eta_p50_s", "ledger_p50_s", "campaign_busy_ratio"):
        if k in extra:
            print(f"  {k:40s} {extra[k]:.6g} (reported, not gated)")
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms_per_audit"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "share_of_audit_time")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
