"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --parent REV --name NAME --seeds 31101-31110
        [--workloads answer retrieve train answer_remote] [--seconds 16]

For each seed and workload, runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` once on REV and once on the working tree, the
parent first on the first, third, ... seed and second on the others.  Each
run gets a fresh copy of its side's src/, perfbench/ and pyproject.toml
(REV's through `git archive`; the working tree's files that git tracks or
would track, as they were when the tool started), with no __pycache__.
Writes BENCH_<NAME>.json at the repository root: per workload, every run's
result and, per end-to-end metric of BENCHMARK.json, each side's median and
interquartile range and the number of seeds where the change's value is
better.  Everything extracted is removed at the end, .bench_work included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src", "perfbench", "pyproject.toml")
RUN_TIMEOUT_S = 900


def parse_seeds(values: list[str]) -> list[int]:
    """Seeds from tokens such as "7" or "31101-31110" (both ends included)."""
    seeds: list[int] = []
    for value in values:
        first, _, last = value.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract_parent(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev, *SOURCES),
                   check=True)


def copy_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *SOURCES)
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(template: Path, work: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's result for one run from a fresh copy of *template*."""
    shutil.copytree(template, work)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def iqr(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, interquartile ranges and seeds where the change is better.

    *metrics* are BENCHMARK.json's end_to_end entries (name, better); runs
    pair up by position.
    """
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        p = [run["metrics"][name] for run in parent]
        c = [run["metrics"][name] for run in change]
        better = sum(sign * (cv - pv) < 0 for pv, cv in zip(p, c))
        summary[name] = {
            "parent_median": round(median(p), 4),
            "parent_iqr": round(iqr(p), 4),
            "change_median": round(median(c), 4),
            "change_iqr": round(iqr(c), 4),
            "change_better_pairs": f"{better}/{len(p)}",
        }
    return summary


def machine() -> str:
    release = platform.release().split("-")[0]
    return (f"{os.cpu_count()}-core {platform.machine()}, {platform.system()} {release}, "
            f"Python {platform.python_version()}, numpy {version('numpy')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--name", required=True, help="writes BENCH_<NAME>.json")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds such as 7 or 1-10")
    parser.add_argument("--workloads", nargs="+",
                        default=["answer", "retrieve", "train", "answer_remote"])
    parser.add_argument("--seconds", type=float, default=16.0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = git("rev-parse", args.parent).decode().strip()
    head = git("rev-parse", "--short", "HEAD").decode().strip()

    runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []}
                                              for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        templates = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        extract_parent(commit, templates["parent"])
        copy_working_tree(templates["change"])
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    run = run_once(templates[side], Path(tmp, "run"), workload, seed,
                                   args.seconds)
                    run["ran_first"] = side == order[0]
                    runs[workload][side].append(run)
                    print(f"{workload} seed {seed} {side}: command_s "
                          f"{run['metrics']['command_s']:.4f}", file=sys.stderr, flush=True)

    command = (f"python3 perfbench/run.py --workload {{workload}} --seed <seed> "
               f"--seconds {args.seconds:g} --trace 0")
    method = (f"{len(seeds)} pairs, seeds {', '.join(args.seeds)}, parent and change alternating "
              "which runs first; each run is one perfbench/run.py invocation from a fresh copy "
              "of its side's src/, perfbench/ and pyproject.toml, which holds no __pycache__ "
              "until the run writes it; metric values are the last JSON line that run printed; "
              "summary medians and interquartile ranges are over the runs of each side, and "
              "change_better_pairs counts the seeds where the change's value is better "
              "(tools/bench_pairs.py)")
    report = [{
        "workload": workload,
        "command": command.format(workload=workload),
        "machine": machine(),
        "method": method,
        "parent": {"commit": commit, "runs": sides["parent"]},
        "change": {"commit": f"working tree on {head}: src/, perfbench/ and pyproject.toml "
                             "as committed with this file",
                   "runs": sides["change"]},
        "summary": summarize(sides["parent"], sides["change"], benchmark["end_to_end"]),
    } for workload, sides in runs.items()]
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
