"""Paper-path benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/repro``). The
workloads, metric names and units are those of ``BENCHMARK.json``; see
``perfbench/README.md`` for what each workload runs and each metric
means. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics and writes its spans to ``perfbench/out/``. The last line of
standard output is the JSON result; the exit code is 0 only when every
output matched its reference.
"""

from __future__ import annotations

import argparse
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
OUT = HERE / "out"
CHILD_TIMEOUT = 170.0


def child(workload: str, seed: int, mode: str) -> dict:
    """One ``batch.py`` process; its last stdout line is its report."""
    done = subprocess.run(
        [sys.executable, str(HERE / "batch.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"batch.py {mode} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def request_metrics(link_seconds) -> dict:
    """On a batch workload one request is one ``LinkingJob.run`` of the batch.

    A run makes a handful of them, so no percentile above the median has
    ten samples beyond it: ``serve_p99_ms`` reports the median too, and
    the rate is that of a median run.
    """
    p50 = statistics.median(link_seconds) * 1000
    return {"serve_req_per_s": 1000 / p50, "serve_p50_ms": p50, "serve_p99_ms": p50}


def batch_workload(workload: str, seed: int, seconds: float, trace: bool):
    """``(metrics, layers, checks, info)`` of one batch-workload run."""
    if trace:
        plain = child(workload, seed, "run")
        traced = child(workload, seed, "trace")
        failed = (plain["digest"] != traced["reference_digest"]) + (
            traced["digest"] != traced["reference_digest"]
        )
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            traced["timings"]["total_s"] / plain["timings"]["total_s"] - 1.0
        )
        info = {"executor": traced["executor"], "spans": traced["spans"]}
        return {}, layers, {"attempted": 2, "failed": failed}, info

    # the first repetition also computes the reference and the F1, off its clock
    started = time.perf_counter()
    runs = [child(workload, seed, "check")]
    reference = runs[0]["reference_digest"]
    budget = seconds + runs[0]["check_s"]
    while time.perf_counter() - started < budget:
        runs.append(child(workload, seed, "run"))
    failed = sum(run["digest"] != reference for run in runs)
    samples = {key: [run["timings"][key] for run in runs] for key in runs[0]["timings"]}
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    metrics.update(request_metrics(samples["link_s"]))
    metrics["f1"] = runs[0]["quality_f1"]
    metrics["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in runs)
    info = {
        "runs": len(runs),
        "pairs": runs[0]["pairs"],
        "matches": runs[0]["matches"],
        "executor": runs[0]["executor"],
        "fallback_reason": runs[0]["fallback_reason"],
        "samples": samples,
    }
    return metrics, {}, {"attempted": len(runs), "failed": failed}, info


def environment() -> dict:
    """What a result depends on besides the code: interpreter, CPUs, commit."""
    from repro.engine import JobConfig, available_cpu_count

    sha = "unknown"
    try:
        # the ceiling keeps git from looking above the checkout
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if head.returncode == 0:
            sha = head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "available_cpu_count": available_cpu_count(),
        "auto_executor": JobConfig(executor="auto").resolved_executor(),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer, self_times

    tracer = Tracer(f"{args.workload}:{args.seed}") if args.trace else None
    if args.workload == "serve-mixed":
        import serve

        metrics, layers, checks, info = serve.run(ROOT, OUT, args.seed, args.seconds, tracer)
        spans = tracer.spans if tracer else []
    else:
        metrics, layers, checks, info = batch_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        spans = info.pop("spans", [])
    checks["failed"] = int(checks["failed"])
    metrics["success_rate"] = 1.0 - checks["failed"] / checks["attempted"]

    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # layers a workload does not exercise read zero
        values = {name: layers.get(name, 0) for name in wanted}
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: metrics[name] for name in wanted}
    info.update(environment())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "checks": checks, "metrics": values, "info": info}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans:
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"spans": spans, "self_seconds": self_times(spans)}, indent=1)
        )
    for name, value in values.items():
        print(f"{name:28} {value:14.6g} {wanted[name]}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": wanted[name]} for name, value in values.items()},
    }))
    return 0 if checks["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
