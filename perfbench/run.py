"""Benchmark entry point.

    python3 perfbench/run.py --workload live_momentum --seed 1 --seconds 15 --trace 0

Runs one workload (``live_momentum``, ``live_concat``, ``replay_concat`` or
``variance_grid``) against the package source in ``src/`` of the checkout this
file sits in, checks the outputs, prints a readable report, and prints as its
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, each
measured on the workload it belongs to (``live_momentum``, ``replay_concat``
or ``variance_grid``; those the named workload is not run briefly after it),
and the spans are written to ``.perfbench_out/``. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    package = ROOT / "src" / "tsgdm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import tsgdm

    if Path(tsgdm.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tsgdm from {tsgdm.__file__}, not from {package}")


def _metrics(declared: list[dict], measured: dict) -> dict:
    metrics = {}
    for entry in declared:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return metrics


def _print_table(title: str, rows: dict, samples: dict | None = None) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        count = f"  ({samples[name]})" if samples and name in samples else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{count}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_package()
    from tracing import Tracer
    from workloads import LAYER_WORKLOADS, WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcomes = {}
    try:
        outcomes[args.workload] = WORKLOADS[args.workload](Run(args.seed, args.seconds, tracer, work))
        if tracer is not None:
            for name in LAYER_WORKLOADS:
                if name not in outcomes:
                    outcomes[name] = WORKLOADS[name](Run(args.seed, 0.0, tracer, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    main_outcome = outcomes[args.workload]
    problems = [problem for outcome in outcomes.values() for problem in outcome.problems]
    _print_table(f"{args.workload} seed={args.seed} (untraced units)", main_outcome.metrics, main_outcome.samples)
    if tracer is not None:
        layer_rows = {}
        for outcome in outcomes.values():
            layer_rows.update(outcome.layers)
        layer_rows["trace.overhead_ratio"] = (main_outcome.overhead, "ratio")
        _print_table("per-layer (each on its own workload)", layer_rows)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = _metrics(spec["per_layer"], layer_rows)
    else:
        metrics = _metrics(spec["end_to_end"], main_outcome.metrics)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": main_outcome.attempted,
        "failed": main_outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
