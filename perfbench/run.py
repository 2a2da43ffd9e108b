"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Prints every metric by name with its
unit, checks the workload's outputs, writes a result record with its
provenance under ``.perfbench/results/``, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  A traced run also writes its
spans to ``.perfbench/trace-<workload>-seed<seed>.json.gz``.

Exit status: 0 when every output check passed, 1 when a check failed,
2 when the program under test is missing or the arguments are bad.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-grid", "gateway-mixed", "remote-bytes")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    from common import WORK_DIRNAME, provenance, report
    from layers import PER_LAYER_UNITS
    import gateway
    import paper_grid

    work = ROOT / WORK_DIRNAME
    work.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "paper-grid":
        result = paper_grid.run(args.seed, args.seconds, trace, str(SRC))
    else:
        scratch = gateway.scratch_dir(ROOT)
        try:
            runner = (
                gateway.run_gateway_mixed
                if args.workload == "gateway-mixed"
                else gateway.run_remote_bytes
            )
            result = runner(args.seed, args.seconds, trace, scratch)
        finally:
            gateway.remove_scratch(scratch)

    if trace:
        recorder = result.extra.pop("trace_spans")
        for name, value in result.extra.pop("layer_metrics").items():
            result.put(name, value, PER_LAYER_UNITS[name])
        trace_path = work / f"trace-{args.workload}-seed{args.seed}.json.gz"
        result.extra["trace_file"] = str(trace_path.relative_to(ROOT))
        result.extra["trace_spans"] = recorder.dump(trace_path)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    info = provenance(ROOT, args.seed, vars(args))
    line = report(args.workload, result, names, info, work / "results")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
