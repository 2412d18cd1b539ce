"""One pass of one workload in a fresh process (started by run.py).

Protocol: the worker imports `pgt`, generates the inputs, runs the ops one
after another (the timed region), then prints one JSON line with the
pass's numbers.  Its set-up time runs from the worker's first statement,
once the interpreter is up, until pgt is imported and the inputs are
generated; timing it here leaves the parent's spawn latency out.  A fresh
process per pass means every pass starts with pgt's module caches empty, as
for a command-line user; ops inside one pass share them, as in a library
session.
With CHECK = 1 every output is checked after the pass; the digest of the
rounded outputs is always reported, so later passes of the same inputs can
be compared against a checked one.  MODE "setup" stops after the set-up and
reports only its time.

The host is shared and its speed drifts, so before the first op and after
each op the worker also times the workload's reference kernel
(reference.py) for REF_SLICE_S, untimed.  Each op's wall and CPU time is
divided by the speed index of the two kernel slices around it; the sums
are reported as wall_ref_s and cpu_ref_s beside the raw wall_s and cpu_s.
Likewise setup_ref_s is setup_s over the speed index of a python-kernel
slice timed right after the set-up.

    python3 perfbench/worker.py WORKLOAD SEED SIZE MODE CHECK
    MODE: plain | traced | setup
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import gc
import json
import resource
import sys
import traceback

# seconds of reference kernel around each op (tiny runs time 3 kernel units)
REF_SLICE_S = {"full": 0.3, "tiny": 0.0}


def main(argv) -> int:
    workload, seed, size, mode, check = argv[0], int(argv[1]), argv[2], argv[3], argv[4] == "1"

    import pgt
    import workloads as wl

    ops = wl.make_ops(workload, seed, size)
    setup = {"setup_s": time.perf_counter() - T_START, "pgt": pgt.__file__}

    import reference

    after_setup = reference.sample("python", REF_SLICE_S[size])
    setup["setup_ref_s"] = setup["setup_s"] / reference.speed_index("python", after_setup)
    if mode == "setup":
        print(json.dumps(setup), flush=True)
        return 0

    span = wl.no_span
    tracer = None
    if mode == "traced":
        import tracer as tr
        tracer = tr.Tracer()
        span = tracer.span
        tracer.install()
    results, errors = [], {}
    wall = cpu = wall_ref = cpu_ref = 0.0
    kernel = reference.KERNEL[workload]
    before = (after_setup if kernel == "python"
              else reference.sample(kernel, REF_SLICE_S[size]))
    try:
        for i, op in enumerate(ops):
            # garbage of the previous op (pgt's sweeps leave reference
            # cycles) is collected untimed, so each op starts on a clean heap
            gc.collect()
            if tracer is not None:
                tracer.op = i
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                results.append(op.run(span))
            except Exception:
                results.append(None)
                errors[i] = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            dc = time.process_time() - c0
            after = reference.sample(kernel, REF_SLICE_S[size])
            speed = reference.speed_index(kernel, before + after)
            before = after
            wall += dt
            cpu += dc
            wall_ref += dt / speed
            cpu_ref += dc / speed
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units, errs, digests = 0, [], []
    for i, (op, result) in enumerate(zip(ops, results)):
        if i in errors:
            continue
        try:
            if check:
                op.check(result)
            units += op.units(result)
            e = op.err(result)
            if e is not None:
                errs.append(e)
            digests.append([op.name, op.digest(result)])
        except Exception:
            errors[i] = traceback.format_exc(limit=3)

    out = {
        **setup,
        "ops": [op.name for op in ops],
        "attempted": len(ops),
        "failed": len(errors),
        "errors": {ops[i].name: text for i, text in sorted(errors.items())},
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": wall_ref,
        "cpu_ref_s": cpu_ref,
        "units": units,
        "peak_rss_mb": rss_mb,
        "err_budget_rel": max(errs + [wl.UNIT_ROUNDOFF]),
        "digest": wl.digest(digests) if not errors else None,
    }
    if tracer is not None:
        from pgt import lfunctions
        tags = {i: op.tag for i, op in enumerate(ops) if op.tag}
        out["layers"] = tr.layer_metrics(tracer, getattr(lfunctions, "CUTOFF_MULT", None),
                                         tags)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
