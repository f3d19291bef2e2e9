"""Canonical benchmark of the enciphered database: one command, every metric.

    python3 benchmarks/canonical/run.py --seed 1990

runs every workload twice, each time in a fresh subprocess with every
``REPRO_*`` variable removed from its environment: an untraced pass
measures the end-to-end metrics and checks every result against an
oracle, and a traced pass replays the same operations with every layer
wrapped in spans to give the per-layer metrics and the tracing overhead.
One workload and one pass::

    python3 benchmarks/canonical/run.py --workload get_zipf --seed 1 --seconds 20 --trace 0

Metric names, units and workloads come from ``BENCHMARK.json`` at the
repository root.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--out`` additionally writes every run's details (host, per-op-type
latencies, the paper-model cross-check) as one JSON document.  The exit
status is non-zero when any operation or check failed, and when a run
could not produce a result at all.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
#: A workload subprocess that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pass of one workload in a fresh, clean-environment subprocess."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{trace}-", dir=WORK))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "harness.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--workdir", str(workdir / "stores")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checked_metrics(result: dict, declared: list[dict], label: str) -> dict:
    values = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"{label}: metrics {sorted(values)} do not match {sorted(names)}")
    for name in names:
        if not math.isfinite(values[name]):
            raise RuntimeError(f"{label}: {name} is not finite ({values[name]})")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _report(label: str, result: dict, metrics: dict) -> None:
    print(f"== {label}: {result['attempted']} attempted, {result['failed']} failed")
    for name, metric in metrics.items():
        print(f"   {name:32s} {metric['value']:14.6g} {metric['unit']}")
    info = result["info"]
    if "probe_median_us" in info:
        print(f"   host probe median {info['probe_median_us']:.1f} us "
              f"(reference {info['reference_probe_us']:.1f} us); as timed, not gated: "
              f"setup {info['timed_setup_s']:.3f} s, {info['timed_ops_per_s']:.1f} ops/s")
    for op_type, s in info.get("latency", {}).items():
        print(f"   {op_type:8s} n={s['n']:<6d} p50 {s['p50_ms']:.3f} ms  p90 {s['p90_ms']:.3f} ms"
              f" | as timed p50 {s['timed_p50_ms']:.3f} ms  p90 {s['timed_p90_ms']:.3f} ms"
              f"  p99 {s['timed_p99_ms']:.3f} ms")
    if "model_us_per_decrypt" in info:
        value = {name: metric["value"] for name, metric in metrics.items()}
        decrypts = value["pointer_cipher.decrypts_per_op"]
        print(f"   paper model: measured pointer_cipher.self_us_per_op "
              f"{value['pointer_cipher.self_us_per_op']:.1f} us/op; "
              f"us_per_call x decrypts_per_op = "
              f"{value['pointer_cipher.us_per_call'] * decrypts:.1f} us/op; "
              f"isolated decrypt {info['model_us_per_decrypt']:.1f} us "
              f"x decrypts_per_op = {info['model_pointer_us_per_op']:.1f} us/op")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1990)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only (default: both)")
    parser.add_argument("--out", type=Path, help="also write every run's details here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no engine source at {SRC}", file=sys.stderr)
        return 2

    passes = [args.trace] if args.trace is not None else [0, 1]
    sections = {0: spec["end_to_end"], 1: spec["per_layer"]}
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_commit": git_commit(ROOT),
    }
    runs = []
    for workload in [args.workload] if args.workload else workloads:
        for trace in passes:
            label = f"{workload} {'traced' if trace else 'untraced'} seed={args.seed}"
            try:
                result = run_child(workload, args.seed, args.seconds, trace)
                metrics = _checked_metrics(result, sections[trace], label)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                print(f"{label}: no result: {exc}", file=sys.stderr)
                return 2
            host["des_kernel"] = result["info"]["des_kernel"]
            _report(label, result, metrics)
            runs.append({"workload": workload, "trace": trace, "seed": args.seed,
                         "seconds": args.seconds, **result, "metrics": metrics})

    print("host " + json.dumps(host))
    if args.out is not None:
        args.out.write_text(json.dumps({"host": host, "runs": runs}, indent=2) + "\n")
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in runs for name, metric in r["metrics"].items()
        }
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
