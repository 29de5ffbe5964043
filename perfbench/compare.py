"""Collect benchmark runs over seeds, show their spread, compare two sets.

    python3 perfbench/compare.py collect results.jsonl --seeds 0-9
    python3 perfbench/compare.py spread results.jsonl
    python3 perfbench/compare.py compare parent.jsonl change.jsonl

``collect`` runs ``run.py`` once per workload and seed, one run at a time,
appending each passing run's result, tagged with its workload and seed, as a
JSON line. ``spread`` prints, per workload and
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median. ``compare`` prints one row per
workload and end-to-end metric for a parent and a change result set, with
both medians and quartiles and the change's delta; a row whose spread exceeds
the metric's bound reads "unresolved" unless every change run beat every
parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load(path: str) -> dict[str, dict[int, dict]]:
    """Untraced results by workload, then seed (a later run of a seed wins)."""
    runs: dict[str, dict[int, dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if not row.get("trace"):
            runs.setdefault(row["workload"], {})[row["seed"]] = row
    return runs


def _values(runs: dict[int, dict], metric: str) -> list[float]:
    return [row["metrics"][metric]["value"] for row in runs.values()]


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def collect(args: argparse.Namespace) -> int:
    spec = _spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    failures = 0
    for workload in workloads:
        for seed in _seeds(args.seeds):
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            tail = done.stdout.strip().splitlines()[-1:] or done.stderr.strip().splitlines()[-1:]
            print(f"{workload} seed={seed} exit={done.returncode} {tail[0] if tail else ''}", flush=True)
            failures += done.returncode != 0
            if done.returncode == 0:
                tagged = {"workload": workload, "seed": seed, "trace": 0, **json.loads(tail[0])}
                with open(args.results, "a", encoding="utf-8") as sink:
                    sink.write(json.dumps(tagged) + "\n")
    spread(args)
    return 1 if failures else 0


def spread(args: argparse.Namespace) -> int:
    spec = _spec()
    runs = _load(args.results)
    print(f"{'workload':<15} {'metric':<22} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, by_seed in runs.items():
        for entry in spec["end_to_end"]:
            median, q1, q3, width = _summary(_values(by_seed, entry["name"]))
            flag = "" if width < entry["bound"] / 3 else "  above a third of the bound"
            print(
                f"{workload:<15} {entry['name']:<22} {len(by_seed):>3} {median:>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {width:>8.2%} {entry['bound']:>6.2f}{flag}"
            )
    return 0


def compare(args: argparse.Namespace) -> int:
    spec = _spec()
    parent, change = _load(args.parent), _load(args.change)
    print(
        f"{'workload':<15} {'metric':<22} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'delta':>8}  verdict"
    )
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            sign = 1.0 if entry["better"] == "lower" else -1.0
            before, after = _values(parent[workload], name), _values(change[workload], name)
            p_med, p_q1, p_q3, p_width = _summary(before)
            c_med, c_q1, c_q3, c_width = _summary(after)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            every_run_better = max(sign * v for v in after) < min(sign * v for v in before)
            if sign * delta > bound:
                verdict = "worse"
            elif max(p_width, c_width) > bound and not every_run_better:
                verdict = "unresolved"
            elif every_run_better and abs(c_med - p_med) > p_q3 - p_q1:
                verdict = "better"
            else:
                verdict = "within bound"
            worse += verdict == "worse"
            print(
                f"{workload:<15} {name:<22} {p_med:>12.6g} [{p_q1:>9.4g}, {p_q3:>9.4g}] "
                f"{c_med:>12.6g} [{c_q1:>9.4g}, {c_q3:>9.4g}] {delta:>+8.2%}  {verdict}"
            )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect", help="run every workload once per seed")
    run.add_argument("results")
    run.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    run.add_argument("--workloads", help="comma-separated; default all")
    run.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    run.set_defaults(func=collect)
    show = commands.add_parser("spread", help="quartile spread of each metric")
    show.add_argument("results")
    show.set_defaults(func=spread)
    both = commands.add_parser("compare", help="parent against change, row by row")
    both.add_argument("parent")
    both.add_argument("change")
    both.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
