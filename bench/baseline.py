"""Measure the benchmark's baseline and write ``bench/baseline.json``.

    python3 bench/baseline.py [--commit SHA]

Two sets of RUNS untraced runs per workload, each run with another seed
(set 1 on seeds 1..RUNS, set 2 on the next RUNS seeds; set 2 starts only
after set 1 has run on every workload).  Each set gives the median and
quartiles of each end-to-end metric and its spread (quartile distance
over median), and ``agreement`` compares the two sets' medians with the
metric's bound.  TRACED traced runs on seed 1 give the per-layer medians,
and their counts must repeat exactly.  Runs are sequential, one process
at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
RUNS = 10  # seeds per set
SETS = 2
TRACED = 2

# Which end-to-end metric, on which workload, each layer metric should
# move; keys are metric-name prefixes.
LAYER_MAP = [
    (("exact_linalg.smith_normal_form.",),
     ["wall_s and latency_p50_s on invariants-sparse and classify-dense", "near zero on zeta"]),
    (("exact_linalg.hermite_normal_form.", "exact_linalg.kernel_basis."),
     ["wall_s on invariants-sparse only (classify-dense runs no HNF)"]),
    (("exact_linalg.solve_min_scalar.", "ktheory.k0.", "ktheory.k1.", "ktheory.ktheory_report.",
      "ktheory.classify_strict."),
     ["latency_p50_s on invariants-sparse and classify-dense"]),
    (("edge_operator.",),
     ["latency_p50_s on invariants-sparse",
      "graphs_per_s on verify-exhaustive, through the contraction state check"]),
    (("ktheory.contraction_reduce.", "multigraph.contract_edge."),
     ["graphs_per_s on verify-exhaustive"]),
    (("exact_linalg.determinant.", "exact_linalg.poly_matrix_det.", "ihara_zeta."),
     ["wall_s on zeta", "graphs_per_s on verify-exhaustive"]),
    (("sweep.enumerate_connected.", "sweep.canonical_key.", "sweep.run_sweep."),
     ["graphs_per_s on verify-exhaustive; zero on every other workload"]),
    (("sweep.check.",), ["graphs_per_s on verify-exhaustive"]),
    (("cli.", "multigraph.parse_graph."),
     ["latency_p50_s on the small commands of zeta and classify-dense"]),
    (("trace.",), ["none: traced minus untraced pass time"]),
]


def layer_map(names):
    out = {}
    for name in names:
        targets = [t for prefixes, t in LAYER_MAP if name.startswith(prefixes)]
        if len(targets) != 1:
            raise SystemExit(f"layer metric {name} needs exactly one LAYER_MAP entry")
        out[name] = targets[0]
    return out


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong outputs\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def agreement(first, second, bound):
    """How far the second set's median lies from the first's, as a share
    of the first; `within` compares it with the metric's bound."""
    shift = second["median"] / first["median"] - 1
    return {"shift": shift, "bound": bound, "within": abs(shift) <= bound}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "commit": args.commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "layer_map": layer_map(m["name"] for m in spec["per_layer"]),
        "workloads": {w["name"]: {"why": w["why"], "sets": []} for w in spec["workloads"]},
    }
    for number in range(SETS):
        seeds = range(number * RUNS + 1, (number + 1) * RUNS + 1)
        for name, entry in out["workloads"].items():
            runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in seeds]
            e2e = {}
            for metric in runs[0]:
                e2e[metric] = dict(summarize([r[metric] for r in runs]), unit=units[metric])
                print(f"set {number + 1} {name:18s} {metric:15s} "
                      f"median {e2e[metric]['median']:.6g} spread {e2e[metric]['spread']:.4f} "
                      f"bound {bounds[metric]}", file=sys.stderr)
            entry["sets"].append({"seeds": list(seeds), "end_to_end": e2e})
            OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, entry in out["workloads"].items():
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["agreement"] = {m: agreement(first[m], second[m], bounds[m]) for m in first}
        traced = [run_once(name, 1, spec["run_seconds"], 1) for _ in range(TRACED)]
        layers = {}
        for metric in traced[0]:
            values = [r[metric] for r in traced]
            if units[metric] == "s":
                layers[metric] = statistics.median(values)
            elif len(set(values)) == 1:
                layers[metric] = values[0]
            else:
                raise SystemExit(f"{name}: count {metric} differs between traced runs: {values}")
        entry["per_layer_seed"] = 1
        entry["per_layer"] = layers
        OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, entry in out["workloads"].items():
        for metric, a in entry["agreement"].items():
            print(f"{name:18s} {metric:15s} set 2 vs set 1 {a['shift']:+.4f} "
                  f"bound {a['bound']} {'ok' if a['within'] else 'OUTSIDE'}", file=sys.stderr)


if __name__ == "__main__":
    main()
