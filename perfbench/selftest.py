#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * a tiny run of every workload passes its gates and prints every
    metric BENCHMARK.json names, with its unit (end-to-end metrics with
    --trace 0, per-layer metrics with --trace 1), and nothing else;
  * the traced run reproduces the untraced digest and its reference;
  * a perturbed reference digest makes every workload exit non-zero
    with every unit failed (fail_ratio = 1), so the gate is not vacuous;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    command exits non-zero without printing a result.
Exit status 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = json.load(open("BENCHMARK.json"))
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args, cwd="."):
    return subprocess.run(
        ["bash", "perfbench/run.sh", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result(p):
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


for w in (w["name"] for w in BENCH["workloads"]):
    tiny = ["--workload", w, "--seed", "42", "--seconds", "1", "--size", "tiny"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = run(tiny + ["--trace", str(trace)])
        r = result(p)
        what = f"{w} --trace {trace}"
        check(p.returncode == 0 and r is not None and r["correct"]
              and r["failed"] == 0 and r["attempted"] >= 1,
              f"{what}: tiny run passes")
        check("reference" in p.stdout and ": ok" in p.stdout,
              f"{what}: digest matches its reference")
        metrics = (r or {}).get("metrics", {})
        for m in BENCH[key]:
            got = metrics.get(m["name"])
            check(got is not None and got["unit"] == m["unit"]
                  and isinstance(got["value"], (int, float)),
                  f"{what}: prints {m['name']} in {m['unit']}")
        check(set(metrics) == {m["name"] for m in BENCH[key]},
              f"{what}: prints no other metric")
    p = run(tiny + ["--trace", "0", "--perturb-reference"])
    r = result(p)
    check(p.returncode != 0 and r is not None and not r["correct"]
          and r["failed"] == r["attempted"] >= 1,
          f"{w}: a perturbed reference fails every unit (fail_ratio = 1)")

bare = tempfile.mkdtemp(prefix="perfbench-bare-")
try:
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    p = run(["--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "bare directory: exits non-zero without a result")
finally:
    shutil.rmtree(bare)

print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
