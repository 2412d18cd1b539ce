"""The pgt benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {sweep,scalar}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; pgt is imported from ./src.  The
run makes passes, each followed by a few set-up-only passes, all within S
seconds, and reports per-pass medians.  Pass and set-up times are scaled
to the nominal host speed by the reference kernel the worker times around
them (reference.py), so that the shared host's drift cancels.  A pass is
one fresh worker process (perfbench/worker.py) with numpy/BLAS thread
pools capped at 1.  --trace 0 reports the end-to-end metrics, --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(see tracer.py).  The first pass's outputs are checked in full and later
passes must reproduce their digest.  The last line of standard output is
the JSON result; the lines before it give the digest and per-pass numbers,
raw and scaled.  Without ./src/pgt the run exits with status 2 and prints
no result.

End-to-end metrics (per pass, median over passes unless noted):
  setup_s         the worker's first statement until pgt is imported and
                  the inputs are generated, divided by the host speed
                  index right after it (median over passes and set-up
                  probes)
  wall_ref_s,     wall and process CPU time of the pass's ops, each op's
  cpu_ref_s       time divided by the host speed index around it
  work_per_ref_s  work units per scaled wall second (unit per workload:
                  WORK_UNIT)
  peak_rss_mb     peak resident memory of the worker after its ops
  err_budget_rel  largest relative error budget the outputs report, at
                  least the float64 unit roundoff (exact workloads)
  ops_ok_ratio    share of attempted ops that ran and passed their check
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "scalar")
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 4   # set-up-only workers after each pass, so setup_s is a median of more

# (name, unit) of the end-to-end metrics, in the order they are printed
END_TO_END = [
    ("setup_s", "s"), ("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("work_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"), ("err_budget_rel", "ratio"), ("ops_ok_ratio", "ratio"),
]

WORK_UNIT = {
    "sweep": "G_V values (traces per psi / interval / smoothed call)",
    "scalar": "L-values (2 per lfun trace) plus oracle items (coefficients, "
              "Kloosterman sums, rho pairs, ...)",
}

# single-threaded numeric libraries; fixed hashing for reproducible order
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload: str, seed: int, size: str, mode: str, check: bool) -> dict:
    """One pass in a fresh worker process; its outputs are checked in full
    when `check` is set."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), size, mode,
           "1" if check else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with status {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    loaded = Path(out["pgt"]).resolve()
    if ROOT / "src" not in loaded.parents:
        raise WorkerFailed(f"pgt was imported from {loaded}, not from ./src")
    return out


def run_passes(workload, seed, seconds, size, trace) -> tuple[list, list, list]:
    """Passes, each followed by SETUP_PROBES set-up probes, within `seconds`.

    A pass starts only if it and its probes fit in what is left of
    `seconds`, judged by the longest unchecked pass so far (the checked
    first pass until there is one); at least one pass (with trace, one
    untraced and one traced) always runs.  Probes between the passes sample
    set-up time across the whole run.  With trace, untraced and traced
    passes alternate.  Outputs are checked in full on the first pass; every
    later pass must reproduce the first pass's digest, or all its ops count
    as failed.
    """
    start = time.perf_counter()
    plain, traced, probes = [], [], []
    reference = None
    checked_cost = longest = 0.0
    while True:
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        t0 = time.perf_counter()
        p = run_pass(workload, seed, size, mode, check=reference is None)
        probes += [run_pass(workload, seed, size, "setup", False)
                   for _ in range(SETUP_PROBES)]
        if reference is None:
            checked_cost = time.perf_counter() - t0
            reference = p["digest"]
        else:
            longest = max(longest, time.perf_counter() - t0)
            if p["digest"] != reference:
                p["errors"]["pass"] = "outputs differ from the checked first pass"
                p["failed"] = p["attempted"]
        (traced if mode == "traced" else plain).append(p)
        full = time.perf_counter() - start + (longest or checked_cost) > seconds
        if full and (not trace or traced):
            break
    return plain, traced, probes


def end_to_end(plain: list, probes: list) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(p["setup_ref_s"] for p in plain + probes),
        "wall_ref_s": med(p["wall_ref_s"] for p in plain),
        "cpu_ref_s": med(p["cpu_ref_s"] for p in plain),
        "work_per_ref_s": med(p["units"] / p["wall_ref_s"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "err_budget_rel": max(p["err_budget_rel"] for p in plain),
        "ops_ok_ratio": 1.0 - sum(p["failed"] for p in plain) / sum(p["attempted"] for p in plain),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain: list, traced: list) -> dict:
    import tracer
    out = {}
    for name in tracer.PER_LAYER:
        vals = [p["layers"][name] for p in traced if name in p["layers"]]
        if vals:
            out[name] = statistics.median(vals)
    out["trace.overhead_ratio"] = (statistics.median(p["wall_ref_s"] for p in traced)
                                   / statistics.median(p["wall_ref_s"] for p in plain))
    return {name: {"value": v, "unit": tracer.unit(name)} for name, v in sorted(out.items())}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pgt" / "__init__.py").is_file():
        print(f"no pgt source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        plain, traced, probes = run_passes(args.workload, args.seed, args.seconds,
                                           args.size, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for op, text in p["errors"].items():
            print(f"FAILED {op}\n{text}", file=sys.stderr)
    digests = sorted({p["digest"] for p in passes if p["digest"]})
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} ops, {failed} failed")
    print(f"work unit: {WORK_UNIT[args.workload]}")
    print(f"ops: {plain[0]['ops']}")
    print(f"digest: {' '.join(digests) or 'none'}")
    for key in ("wall_s", "wall_ref_s", "cpu_s", "peak_rss_mb"):
        print(f"per pass {key}: {[round(p[key], 4) for p in plain]}")
    for key in ("setup_s", "setup_ref_s"):
        print(f"set-ups {key}: {[round(p[key], 4) for p in plain + traced + probes]}")
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, probes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
