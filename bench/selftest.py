"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that the oracle accepts real outputs and rejects corrupted ones, that
short runs print every metric BENCHMARK.json declares with its unit, and
that the benchmark fails cleanly where the package sources are missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import shutil
import subprocess
import sys

import run
import worker as worker_module
import workloads

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"[{'ok' if condition else 'FAIL'}] {what}")
    if not condition:
        failures.append(what)


def first(name: str, scratch: str, kind: str | None = None) -> dict:
    for op in workloads.stream(name, "selftest", scratch):
        if kind is None or op["kind"] == kind:
            return op
    raise AssertionError("unreachable: streams are endless")


def corrupt_operator(reply: dict, scramble) -> dict:
    """Reply whose derive output has one entry of one Kraus operator altered.

    The altered entry is the second largest of the operator whose two largest
    entries have the largest product, so the change is not a global phase of
    that operator and moves the Choi matrix by about twice that product.
    """
    doc = json.loads(reply["stdout"])
    best_weight, target = -1.0, None
    for point in doc["points"]:
        for operator in point["kraus"]["operators"]:
            entries = sorted((pair for row in operator for pair in row),
                             key=lambda pair: -abs(complex(*pair)))
            weight = abs(complex(*entries[0])) * abs(complex(*entries[1]))
            if weight > best_weight:
                best_weight, target = weight, entries[1]
    altered = scramble(complex(*target))
    target[:] = [altered.real, altered.imag]
    return {**reply, "stdout": json.dumps(doc)}


def check_derive(worker: run.Worker, scratch: str) -> None:
    for name, kind in (("points", "gad_scaled"), ("points", "gad_physical"),
                       ("points", "pd_rates"), ("sweep", None)):
        op = first(name, scratch, kind)
        reply = worker.request(argv=op["argv"])
        label = kind or name
        expect(run.check(op, reply) is None, f"{label}: real output accepted")
        expect(run.check(op, corrupt_operator(reply, lambda v: -v)) is not None,
               f"{label}: operator entry with flipped sign rejected")
        expect(run.check(op, corrupt_operator(reply, lambda v: 1j * v)) is not None,
               f"{label}: operator entry with scrambled phase rejected")
    # omega0 / T far beyond what exp can take: the oracle must still answer
    op = first("points", scratch, "gad_physical")
    op = {**op, "bath": {**op["bath"], "temperature": 0.01},
          "argv": [workloads._flag("temperature", 0.01) if arg.startswith("--temperature=")
                   else arg for arg in op["argv"]]}
    expect(run.check(op, worker.request(argv=op["argv"])) is None,
           "gad_physical near zero temperature: real output accepted")
    op = first("points", scratch, "gad_scaled")
    reply = worker.request(argv=op["argv"])
    expect(run.check(op, {**reply, "rc": 3}) is not None, "non-zero exit rejected")
    expect(run.check(op, {**reply, "error": "RuntimeError: boom"}) is not None,
           "raising call rejected")
    doc = json.loads(reply["stdout"])
    doc["points"][0]["choi_eigenvalues"][0] += 1e-8
    expect(run.check(op, {**reply, "stdout": json.dumps(doc)}) is not None,
           "wrong Choi eigenvalue rejected")


def check_frames(worker: run.Worker, scratch: str) -> None:
    op = first("frames", scratch)
    reply = run.call(worker, op)
    expect(run.check(op, reply) is None, "frames: real output accepted")
    name = sorted(os.listdir(op["directory"]))[0]
    path = os.path.join(op["directory"], name)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    row = lines[1].split(",")
    row[2] = repr(float(row[2]) + 1e-9)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    expect(run.check(op, reply) is not None, "frames: row off by 1e-9 rejected")
    os.remove(path)
    expect(run.check(op, reply) is not None, "frames: missing file rejected")
    shutil.rmtree(op["directory"])


def check_verify(worker: run.Worker, scratch: str) -> None:
    op = first("verify", scratch)
    reply = worker.request(argv=op["argv"])
    expect(run.check(op, reply) is None, "verify: real report accepted")
    with open(op["report"], encoding="utf-8") as handle:
        report = json.load(handle)
    broken = copy.deepcopy(report)
    broken["checks"][0]["passed"] = False
    broken["all_passed"] = False
    with open(op["report"], "w", encoding="utf-8") as handle:
        json.dump(broken, handle)
    expect(run.check(op, reply) is not None, "verify: failed check rejected")
    expect(run.check(op, {**reply, "rc": 1}) is not None, "verify: exit code 1 rejected")
    os.remove(op["report"])


def check_cache_clearing() -> None:
    """A cache in a kraus_forge module, even behind a tracing wrapper, is emptied."""
    cached = functools.lru_cache(maxsize=None)(abs)
    module = type(sys)("kraus_forge._selftest")
    module.traced = functools.wraps(cached)(lambda value: cached(value))
    sys.modules[module.__name__] = module
    try:
        module.traced(-1.0)
        worker_module.clear_caches()
        expect(cached.cache_info().currsize == 0, "functools caches cleared before a call")
    finally:
        del sys.modules[module.__name__]


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "verify",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        printed = {name: value["unit"] for name, value in result["metrics"].items()}
        wanted = {metric["name"]: metric["unit"] for metric in declared[group]}
        expect(done.returncode == 0 and result["correct"], f"--trace {trace}: run succeeds")
        expect(printed == wanted, f"--trace {trace}: prints every {group} metric with its unit")


def check_full_domain() -> None:
    """Calls where the program is known to fail count as failed, not as a crash."""
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "points",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--full-domain"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    expect(done.returncode == 0 and not result["correct"] and result["failed"] > 0,
           "--full-domain: the program's known failures are counted")


def check_without_sources(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "without sources: exits non-zero and prints no result")


def main() -> int:
    scratch = str(run.SCRATCH / f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        worker = run.Worker()
        try:
            check_derive(worker, scratch)
            check_frames(worker, scratch)
            check_verify(worker, scratch)
        finally:
            worker.close()
        check_cache_clearing()
        check_metric_names()
        check_full_domain()
        check_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
