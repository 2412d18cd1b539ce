"""Record the benchmark's baseline: machine, numbers, spreads and digests.

    python3 perfbench/collect.py [--out perfbench/baseline.json]

For every workload in BENCHMARK.json this makes RUNS untraced runs with
seeds 1..RUNS and one traced run with seed 1, through the benchmark command
itself, and writes per metric the median and the spread (interquartile
range over median, as statistics.quantiles(n=4) gives it).  Also recorded:
each workload's rationale, the digest of the outputs at seed 1 (rounded to
1e-12 relative, see workloads.digest), and the machine the numbers come
from.  Beside the scaled wall_ref_s it records the raw wall time per pass
and the spread of the runs' raw medians, the evidence for scaling by the
reference kernel.  Runs are sequential; nothing else should run meanwhile.  Top-level
keys of an existing output file that this script does not write (one-off
measurements such as "replicas_vs_single") are kept.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_SEED = 1
RUNS = 10


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_per_core"] = caches
    return info


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def per_pass(info: list, key: str) -> list:
    """The per-pass values run.py prints on its `per pass <key>:` line."""
    prefix = f"per pass {key}: "
    return ast.literal_eval(next(line for line in info if line.startswith(prefix))[len(prefix):])


def spread(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"machine": machine(), "run_seconds": spec["run_seconds"],
           "seeds": list(range(1, RUNS + 1)), "digest_seed": DIGEST_SEED,
           "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict = {}
        runs, raw_wall, digest = [], [], None
        for seed in out["seeds"]:
            t0 = time.perf_counter()
            result, info = run(spec, name, seed, 0)
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: outputs failed their checks")
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            if seed == DIGEST_SEED:
                digest = next(line.split(": ", 1)[1] for line in info
                              if line.startswith("digest:"))
            raw_wall.append(statistics.median(per_pass(info, "wall_s")))
            runs.append({"seed": seed, "elapsed_s": round(time.perf_counter() - t0, 1),
                         "passes": info[0], "wall_s": per_pass(info, "wall_s"),
                         "wall_ref_s": per_pass(info, "wall_ref_s")})
            print(name, seed, {k: round(v["value"], 5) for k, v in result["metrics"].items()},
                  flush=True)
        traced, _ = run(spec, name, DIGEST_SEED, 1)
        metrics = {}
        for key, vals in values.items():
            s = spread(vals)
            metrics[key] = {"median": statistics.median(vals), "spread": s,
                            "spread_over_bound": s / bounds[key], "values": vals}
        out["workloads"][name] = {
            "why": w["why"], "digest_seed_1": digest, "runs": runs,
            "end_to_end": metrics,
            "raw_wall_s": {"median": statistics.median(raw_wall),
                           "spread": spread(raw_wall), "values": raw_wall},
            "per_layer_seed_1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    path = Path(args.out)
    if path.exists():
        out = {**json.loads(path.read_text()), **out}
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
