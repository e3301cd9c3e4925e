"""Benchmark of `capbias report`: end-to-end metrics, or per-layer metrics.

    python3 perfbench/run.py --workload cooccur_coco --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, default seed and length

Run from anywhere; the program is imported from ``src/`` next to this
directory. Inputs are generated from ``--seed`` and cached under
``perfbench/_inputs``. Every measured process is a fresh child with one BLAS
thread and a fixed hash seed.

``--trace 0`` starts three children one after another, each running reports
until its share of ``--seconds`` is used up and each preceded by six
set-up-only children, and prints ``report_s`` (median over all reports),
``setup_s`` (median over all 21 children) and ``peak_rss_mb`` (median over
the three that ran reports). ``--trace 1`` runs one child that alternates
untraced and traced reports and prints the per-layer metrics of the traced
reports (medians over reports) with the tracing overhead. Both check every
report; the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORD_LIST = SRC / "capbias" / "data" / "gender_words.tsv"
CACHE = HERE / "_inputs"
OUT = HERE / "_out"

N_CHILDREN = 3
SETUPS_PER_CHILD = 6
CHILD_TIMEOUT_S = 170
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


class BenchError(RuntimeError):
    pass


def prepare(name: str, seed: int, out_dir: Path) -> dict:
    """Generate (or reuse) the inputs and build the report command line."""
    workload = WORKLOADS[name]
    in_dir, tallies = inputs.cached_inputs(
        CACHE, workload["kind"], workload["params"], seed, WORD_LIST
    )
    config = out_dir / "config.json"
    config.write_text(json.dumps(
        {"protocol": {"classifier": workload.get("classifier", {})}}
    ), encoding="utf-8")
    argv = [
        "report",
        "--human-captions", str(in_dir / "human_captions.jsonl"),
        "--generated-captions", str(in_dir / "generated_captions.jsonl"),
        "--annotations", str(in_dir / "annotations.jsonl"),
        "--metrics", workload["metrics"],
        "--seed", str(seed),
        "--config", str(config),
        "--out", str(out_dir / "report.json"),
        "--quiet",
    ]
    warmup = {
        "captions": str(in_dir / "human_captions.jsonl"),
        "annotations": str(in_dir / "annotations.jsonl"),
    }
    if workload["kind"] == "coco":
        argv += ["--objects", str(in_dir / "objects.jsonl"),
                 "--object-lexicon", str(in_dir / "lexicon.json")]
        warmup["objects"] = str(in_dir / "objects.jsonl")
    if "n_seeds" in workload:
        argv += ["--n-seeds", str(workload["n_seeds"])]
    return {"in_dir": in_dir, "tallies": tallies, "argv": argv, "warmup": warmup,
            "out": str(out_dir / "report.json")}


def launch(prep: dict, deadline: float, trace: bool, min_reports: int = 1) -> dict:
    """Run one measured child to its deadline and return what it measured."""
    plan = {
        "src": str(SRC), "argv": prep["argv"], "warmup": prep["warmup"],
        "out": prep["out"], "deadline": deadline, "trace": trace,
        "min_reports": min_reports,
    }
    env = {**os.environ, **CHILD_ENV}
    plan["launch"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(plan)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("measured process timed out")
    if proc.returncode != 0:
        raise BenchError(f"measured process exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def check(name: str, prep: dict, children: list[dict]) -> list[str]:
    """Every report of every child is the same, and it is correct."""
    workload = WORKLOADS[name]
    reports = []
    for child in children:
        for report in child["reports"]:
            if report not in reports:
                reports.append(report)
    if len(reports) != 1:
        return [f"{len(reports)} different reports from identical calls"]
    report = reports[0]
    words = inputs.attribute_words(WORD_LIST)
    if workload["metrics"].startswith("lic"):
        return checks.check_lic(report, children[0], workload, prep["tallies"], words)
    pair = inputs.load_pair(prep["in_dir"])
    return checks.check_cooccur(report, pair, prep["tallies"], words)


def check_trace(name: str, child: dict) -> list[str]:
    """Spans reached every required function and cover the report time."""
    errors = []
    for calls in child["trace_calls"]:
        missing = [f for f in WORKLOADS[name]["reach"] if calls.get(f, 0) == 0]
        if missing:
            errors.append(f"traced run never reached {missing}")
            break
    for root, wall in zip(child["trace_root_s"], child["traced_report_s"]):
        if not 0 <= wall - root <= 0.002 + 0.01 * wall:
            errors.append(f"root span {root:.4f} s is not the report's {wall:.4f} s")
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = OUT / f"{name}-s{seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        prep = prepare(name, seed, out_dir)
        start = time.monotonic()
        if not trace:
            # Set-up-only children between the reporting ones give set-up
            # time more samples at little cost.
            setups, children = [], []
            for i in range(N_CHILDREN):
                setups += [launch(prep, 0.0, False, min_reports=0)
                           for _ in range(SETUPS_PER_CHILD)]
                children.append(launch(prep, start + seconds * (i + 1) / N_CHILDREN, False))
        else:
            children = [launch(prep, start + seconds, True, min_reports=2)]
        errors = check(name, prep, children)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    codes = [c for child in children for c in child["exit_codes"]]
    if not trace:
        metrics = {
            "report_s": statistics.median(
                t for child in children for t in child["report_s"]),
            "setup_s": statistics.median(
                child["setup_s"] for child in children + setups),
            "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
        }
        units = END_TO_END_UNITS
    else:
        child = children[0]
        errors += check_trace(name, child)
        metrics = {
            key: statistics.median(layers[key] for layers in child["layers"])
            for key in child["layers"][0]
        }
        traced, untraced = child["traced_report_s"], child["report_s"]
        metrics["trace.report_s"] = statistics.median(traced)
        # Each traced report against the untraced ones just before and after
        # it, so that drift of the host's speed cancels.
        metrics["trace.overhead_s"] = statistics.median(
            t - statistics.fmean(untraced[i:i + 2]) for i, t in enumerate(traced)
        )
        units = {key: layer_unit(key) for key in metrics}
    for error in errors:
        print(f"{name}: CHECK FAILED: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(codes),
        "failed": sum(1 for c in codes if c != 0),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "capbias" / "cli.py").is_file():
        print(f"error: no capbias sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "capbias"), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                res = results[name]
                shown = ", ".join(
                    f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()
                )
                print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']} {shown}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m
                for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
