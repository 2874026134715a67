#!/usr/bin/env python3
"""bench_suite_smoke: every workload at toy scale, in both modes.

  smoke.py DS_BENCH BENCHMARK_JSON

Runs `DS_BENCH --workload W --smoke --trace T` for each workload in
BENCHMARK.json and T in {0, 1}, and checks that the run exits 0 with every
gate passed, that its JSON result names exactly the metrics BENCHMARK.json
lists for that mode (end_to_end or per_layer) with their units, that each
metric is also printed as a `<workload> <metric> <value> <unit>` line, and
that a traced run writes a Chrome trace.  Writes traces to the working
directory.  Python 3 standard library only.
"""

import json
import math
import subprocess
import sys


def check_run(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--smoke", "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace)]
    trace_file = f"{workload}.smoke-trace.json"
    if trace:
        cmd += ["--trace-out", trace_file]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return errors + ["last stdout line is not a JSON result"]
    if result.get("correct") is not True:
        errors.append("a correctness gate missed")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"metrics {sorted(metrics)} != {sorted(expected)}")
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for name, unit in expected.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            errors.append(f"{name}: unit {got.get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if (workload, name) not in printed:
            errors.append(f"{name}: no '{workload} {name} ...' line")
    if trace:
        try:
            with open(trace_file) as f:
                if not json.load(f)["traceEvents"]:
                    errors.append("the trace holds no spans")
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"bad trace file: {e}")
    return errors


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, spec_path = sys.argv[1:]
    with open(spec_path) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            errors = check_run(binary, w["name"], trace, expected)
            print(f"{w['name']} --trace {trace}: "
                  f"{'ok' if not errors else 'FAIL'}")
            for e in errors:
                print(f"  {e}")
            failed = failed or bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
