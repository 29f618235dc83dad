"""The repo's one benchmark: four workloads, end to end and per layer.

Three ways in, all from the repository root::

    python3 benchmarks/e2e/run.py                      # everything
    python3 benchmarks/e2e/run.py --workload tcp_mixed --e2e-only
    python3 benchmarks/e2e/run.py --aa 5               # A/A report

and the form the benchmark driver uses, one pass of one workload whose
last output line is a JSON object::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the traced pass and reports the per-layer metrics.
Each pass runs in fresh subprocesses (``worker.py``); ``setup_s`` is the
median over five of them.  Names, units and bounds come from
``spec.py``; see ``README.md`` for what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

import spec  # noqa: E402
from calib import CAL_REF_S, spread  # noqa: E402

OUT = HERE / "out"
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """A worker died or printed nothing usable."""


def _spawn(
    workload: str, seed: int, scale: float, mode: str, tmp: Path
) -> dict[str, Any]:
    """Run one worker to its end; *tmp* is its own empty directory."""
    tmp.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--mode", mode,
        "--tmp", str(tmp), "--out", str(OUT),
        "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
            check=False, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}/{mode}: worker timed out") from exc
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload}/{mode}: worker exited {done.returncode}")
    return json.loads(lines[-1])


def measure(
    workload: str, seed: int, scale: float, traced: bool
) -> dict[str, Any]:
    """One pass of one workload; the worker's result plus ``setup_s``."""
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        if traced:
            return _spawn(workload, seed, scale, "trace", tmp / "trace")
        # one-shot operations are repeated, not trusted: a single
        # set-up varied by a third from run to run
        setups = [
            _spawn(workload, seed, scale, "setup",
                   tmp / f"setup-{index}")["setup_s"]
            for index in range(SETUP_SPAWNS - 1)
        ]
        result = _spawn(workload, seed, scale, "e2e", tmp / "e2e")
        setups.append(result["setup_s"])
        metrics = result["metrics"]
        metrics["setup_s"] = {
            "value": statistics.median(setups), "n": len(setups)}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "n": 1}
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def declared(workload: str, traced: bool) -> dict[str, str]:
    """name -> unit of the metrics *workload* reports in this pass."""
    if not traced:
        return {metric.name: metric.unit for metric in spec.END_TO_END}
    return {
        metric.name: metric.unit
        for metric in spec.PER_LAYER
        if workload in metric.workloads
    }


def _check_names(workload: str, traced: bool, result: dict[str, Any]) -> None:
    want = set(declared(workload, traced))
    got = set(result["metrics"])
    if want != got:
        raise BenchmarkError(
            f"{workload}: metrics differ from spec.py: missing "
            f"{sorted(want - got)}, undeclared {sorted(got - want)}")


def _print_pass(workload: str, traced: bool, result: dict[str, Any]) -> None:
    units = declared(workload, traced)
    for name, unit in units.items():
        entry = result["metrics"][name]
        count = "" if entry["n"] is None else f"  n={entry['n']}"
        print(f"{workload:15s} {name:45s} {entry['value']:>16.6g} "
              f"{unit}{count}")
    for failure in result["failures"]:
        print(f"{workload:15s} FAILED  {failure}")
    print(f"{workload:15s} {'operations':45s} "
          f"{result['attempted']:>16d} attempted, {result['failed']} failed",
          flush=True)


def run_pass(
    workload: str, seed: int, scale: float, traced: bool
) -> dict[str, Any]:
    result = measure(workload, seed, scale, traced)
    _check_names(workload, traced, result)
    _print_pass(workload, traced, result)
    return result


# ----------------------------------------------------------------------
# Driver form
# ----------------------------------------------------------------------


def driver(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    result = run_pass(args.workload, args.seed,
                      args.seconds / spec.RUN_SECONDS, traced)
    metrics = {}
    if traced:
        # the driver wants every per-layer name from every workload; a
        # layer that is not on this workload's path did no work: 0
        for metric in spec.PER_LAYER:
            entry = result["metrics"].get(metric.name)
            metrics[metric.name] = {
                "value": entry["value"] if entry else 0.0,
                "unit": metric.unit,
            }
    else:
        for metric in spec.END_TO_END:
            metrics[metric.name] = {
                "value": result["metrics"][metric.name]["value"],
                "unit": metric.unit,
            }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Full report
# ----------------------------------------------------------------------


def report(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    scale = args.seconds / spec.RUN_SECONDS
    started = time.time()
    body: dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failed = 0
    for workload in workloads:
        passes = {"end_to_end": run_pass(workload, args.seed, scale, False)}
        if not args.e2e_only:
            passes["per_layer"] = run_pass(workload, args.seed, scale, True)
        body["workloads"][workload] = {
            kind: {
                "metrics": result["metrics"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failures": result["failures"],
                "notes": result["notes"],
            }
            for kind, result in passes.items()
        }
        failed += sum(result["failed"] for result in passes.values())
    body["elapsed_s"] = time.time() - started
    print(f"elapsed {body['elapsed_s']:.1f} s; "
          f"{'FAILED: ' + str(failed) + ' operations' if failed else 'all outputs correct'}")
    if args.out:
        Path(args.out).write_text(json.dumps(body, indent=1) + "\n")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# A/A mode
# ----------------------------------------------------------------------


def host_info(cal_ms: list[float]) -> dict[str, Any]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "harness.cal_ms_p50": statistics.median(cal_ms),
    }


def _summary(values: list[float]) -> dict[str, Any]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def aa(args: argparse.Namespace) -> int:
    """Two interleaved sets of N runs of the same tree, judged by the
    benchmark's own bounds — what the driver does to accept it."""
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    scale = args.seconds / spec.RUN_SECONDS
    seeds = [args.seed + index for index in range(args.aa)]
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {
        workload: {"a": [], "b": []} for workload in workloads
    }
    cal_ms: list[float] = []
    for seed in seeds:
        for side in ("a", "b"):
            for workload in workloads:
                result = run_pass(workload, seed, scale, False)
                runs[workload][side].append(result)
                cal_ms.append(statistics.median(result["cal_s"]) * 1e3)
    rows = []
    verdicts = []
    for workload in workloads:
        failed = sum(
            result["failed"]
            for side in runs[workload].values() for result in side
        )
        for metric in spec.END_TO_END:
            sides = {
                side: [r["metrics"][metric.name]["value"] for r in results]
                for side, results in runs[workload].items()
            }
            a, b = _summary(sides["a"]), _summary(sides["b"])
            worse = (
                b["median"] - a["median"] if metric.better == "lower"
                else a["median"] - b["median"]
            )
            gap = worse / a["median"]
            both = spread(sides["a"] + sides["b"])
            ok = gap <= metric.bound and (
                metric.name == "setup_s" or both <= metric.bound)
            verdicts.append(ok and failed == 0)
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "better": metric.better,
                "bound": metric.bound, "a": a, "b": b,
                "gap": gap, "spread": both, "failed_operations": failed,
                "verdict": "PASS" if ok and failed == 0 else "FAIL",
            })
            print(f"{workload:15s} {metric.name:22s} a={a['median']:<12.6g}"
                  f" b={b['median']:<12.6g} gap={gap:+.3f} "
                  f"spread={both:.3f} bound={metric.bound} "
                  f"{rows[-1]['verdict']}")
    body = {
        "host": host_info(cal_ms), "runs_per_set": args.aa, "seeds": seeds,
        "seconds": args.seconds, "cal_ref_s": CAL_REF_S, "results": rows,
    }
    target = Path(args.out) if args.out else HERE / "AA_REPORT.json"
    target.write_text(json.dumps(body, indent=1) + "\n")
    print(f"wrote {target}")
    return 0 if all(verdicts) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="run length; repetitions scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one pass, JSON last line")
    parser.add_argument("--e2e-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the repetitions")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A mode: two interleaved sets of N runs")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = spec.RUN_SECONDS / 20.0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return driver(args)
        if args.aa:
            return aa(args)
        return report(args)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
