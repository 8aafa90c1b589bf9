"""End-to-end benchmark of the loading-aware leakage estimator.

Run from the repository root::

    python3 e2ebench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for what each runs and why):

``campaign``   loading-aware and no-loading totals on s838 and s13207,
               then a greedy minimum-leakage search on s838;
``serving``    a warm s838 session answering 1-vector queries from two
               closed-loop clients through the coalescing front-end;
``reference``  transistor-level reference solves on alu88 (dense Newton)
               and s838 (sparse Newton) next to the LUT estimate;
``variation``  cold QMC percentile queries and moment propagation on the
               Fig. 10 loaded inverter.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics, each workload filling them with its own unit of work:

``setup_s``       median over the run's set-ups (at least three, repeated
                  until a second of set-up time is measured) of parse +
                  lint + cold characterization + compile
                  (``EstimationSession.warm_up``);
``peak_rss_mb``   peak resident memory of the process;
``throughput``    answers per second: loading-aware vectors (campaign),
                  queries over the serving phase's wall time (serving),
                  reference vectors (reference), pooled QMC samples
                  (variation);
``latency_ms``    median time of the latency-bound request: one greedy
                  search (campaign), one 1-vector query (serving), one
                  reference pass over both circuits (reference), one moment
                  propagation (variation).

``--trace 1`` ignores ``--seconds`` and runs one fixed pass three times:
untraced to pay the process's one-time costs, untraced again as the
baseline, and then with every layer's entry points wrapped
(``layers.py``).  It reports the per-layer metrics of the traced pass plus
``trace.overhead_pct``, its throughput against the baseline's; spans and
counters are written to ``.e2ebench/``.  The last line of standard output
is always the JSON result.

BLAS runs single-threaded.  On a two-core machine an idle OpenBLAS pool
keeps spinning after each call and competes with the Python-level work
around it; a fixed loop of Python plus small solves then varied fourfold
in run time, against a few percent with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import warnings
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parents[1]
#: Where traced runs leave their spans (inside the checkout, git-ignored).
OUTPUT_DIR = ROOT / ".e2ebench"


def fingerprint() -> dict[str, object]:
    """Return the machine and toolchain a profile was measured on."""
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(outcome) -> dict[str, tuple[float, str]]:
    """Return the end-to-end metrics of an untraced run."""
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "throughput": (outcome.throughput, "1/s"),
        "latency_ms": (outcome.latency_ms, "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace == 0 and args.seconds is None:
        parser.error("an untraced run needs --seconds")

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        parser.error(f"no program sources at {source}; run from a full checkout")
    sys.path.insert(0, str(source))
    import layers
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    run = workloads.WORKLOADS[args.workload]
    OUTPUT_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUTPUT_DIR) as workdir, warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        if args.trace == 0:
            outcome = run(workloads.Plan(args.seed, Path(workdir), args.seconds))
            metrics = end_to_end(outcome)
            problems = outcome.finish()
        else:
            fixed = workloads.Plan(args.seed, Path(workdir), None)
            run(fixed)
            baseline = run(fixed).throughput
            tracer = Tracer()
            layers.install(tracer)
            try:
                outcome = run(fixed)
            finally:
                tracer.close()
            problems = outcome.finish()
            clamps = [
                layers.count_clamps(compiled, bits)
                for compiled, bits in outcome.facts.get("clamp_inputs", [])
            ]
            if not all(entry["matches_engine"] for entry in clamps):
                problems.append("re-derived pin loading differs from the engine's")
            metrics = layers.per_layer_metrics(tracer, outcome.facts, clamps)
            metrics["trace.overhead_pct"] = (
                (baseline / outcome.throughput - 1.0) * 100.0, "%"
            )
            record = {
                "workload": args.workload,
                "seed": args.seed,
                "machine": fingerprint(),
                "digest": outcome.digest,
                "per_layer": {name: value for name, (value, unit) in metrics.items()},
                "spans": tracer.records(),
            }
            path = OUTPUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(record))
            print(f"spans written to {path.relative_to(ROOT)}")

    # The coalescer's flush threads finish with their batches; wait for them.
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=30)
    # Non-converged characterization cells and Monte-Carlo samples surface
    # as *ConvergenceWarning*s; each one counts as a failed operation.
    nonconverged = [w for w in caught if "Convergence" in w.category.__name__]
    failed = outcome.failed + len(nonconverged)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"digest {outcome.digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
