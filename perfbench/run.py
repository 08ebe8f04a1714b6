"""satfuse benchmark.

    python3 perfbench/run.py --workload {fusion,scene-prep,quadrat-rf} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/`` of the
same checkout; inputs are generated from the seed under ``.perfbench_work/``
and removed at the end.  With ``--trace 0`` the last line of standard output
is the result with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics derived from spans, and the spans are written to
``.perfbench_out/``.  The line before the result describes the environment,
the workload's own figures and the check verdicts.  Exit status: 0 when
every check passed, 1 when a check or an operation failed, 2 when the
benchmark could not run at all.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fusion", "scene-prep", "quadrat-rf")
N_SETUPS = 3


def _cap_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= n):
            os.environ[var] = str(n)
    return n


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    nproc = _cap_blas_threads()
    if not (SRC / "satfuse" / "__init__.py").is_file():
        print(f"satfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import env
    import harness
    import satfuse  # noqa: F401  (import time belongs to set-up)
    from workloads import Context, load

    workload = load(args.workload)
    import_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=work_root))
    try:
        ctx = Context(seed=args.seed, workdir=workdir)
        run = harness.Run(workload, ctx, args.seconds, N_SETUPS, tracer)
        run.execute()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer.spans, len(run.setup_times), len(run.passes))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = run.end_to_end(import_s, peak_rss_mb)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env.stamp(nproc),
        "import_s": import_s,
        "setup_runs_s": run.setup_times,
        "sync_s": run.sync_s,
        "warmup_s": run.warmup_s,
        "passes": len(run.passes),
        "pass_wall_s": [p.seconds for p in run.passes],
        "typical_pass_s": {(ph or "all"): run.typical_seconds(ph) for ph in (None, *harness.PHASES)},
        "workload_metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in workload.summary(run.passes).items()
        },
        "checks_passed": sum(ok for p in run.passes for _, _, ok, _ in p.checks),
        "checks_failed": [
            {"pass": p.index, "op": op, "check": what, "detail": detail}
            for p in run.passes
            for op, what, ok, detail in p.checks
            if not ok
        ],
        "first_pass_checks": [
            {"op": op, "check": what, "ok": ok, "detail": detail}
            for op, what, ok, detail in run.passes[0].checks
        ],
        "failures": run.failures(),
    }
    print(json.dumps(info))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
