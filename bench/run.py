"""kraus-forge benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout. A worker process (bench/worker.py)
calls kraus_forge.cli.main(argv) in a closed loop, one call at a time; this
process generates the argv from the seed, checks every output with the
oracle (bench/oracle.py) outside the timed region, and prints the metrics
named in BENCHMARK.json as the last line of stdout.

--trace 0 measures the end-to-end metrics: calls for --seconds seconds,
with set-up time sampled in fresh interpreters between them. --trace 1 measures the
per-layer metrics: a fixed list of calls sized from --seconds runs once
untraced and once with spans around the layers' public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

# one BLAS/OpenMP thread everywhere, set before numpy loads in any process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import SPAN_NAMES  # noqa: E402

SETUP_REPEATS = 15
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import kraus_forge.cli\n"
    "kraus_forge.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
# calls made before timing, so imports and lazy set-up are done
WARMUP_OPS = {"sweep": 1, "points": 40, "verify": 5, "frames": 1}
# seconds per call at the seed commit; sizes the traced run's call list
NOMINAL_OP_SECONDS = {"sweep": 1.0, "points": 0.004, "verify": 0.07, "frames": 0.65}
# a call that takes longer is a hang: the worker is killed and the run fails
CALL_TIMEOUT_S = 60.0
# a traced run still going after this many seconds fails without a result
TRACED_RUN_LIMIT_S = 150.0
# spans whose calls per item are reported: the redundant-work ratios
PER_ITEM_SPANS = ("linalg.hermitian_eig", "kraus.kraus_to_choi")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds() -> float:
    """Seconds to import kraus_forge.cli and build its parser in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


class Worker:
    """The worker process, driven one request at a time."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], env=child_env(), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def request(self, **message) -> dict:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        # one request is outstanding at a time, so no reply sits in the buffer
        ready, _, _ = select.select([self.process.stdout], [], [], CALL_TIMEOUT_S)
        if not ready:
            self.process.kill()
            raise TimeoutError(f"no reply within {CALL_TIMEOUT_S} s to {message}")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.process.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _produced(op: dict) -> list[str]:
    if op["kind"] == "verify":
        return [op["report"]] if os.path.exists(op["report"]) else []
    if op["kind"] == "bloch3d":
        return [os.path.join(op["directory"], name) for name in os.listdir(op["directory"])]
    return []


def check(op: dict, reply: dict) -> str | None:
    """Why the call's output is wrong, or None if the oracle accepts it."""
    if reply["error"] is not None:
        return f"raised {reply['error']}"
    if reply["rc"] != 0:
        return f"exit code {reply['rc']}"
    if op["kind"] == "verify":
        return oracle.check_verify(op["report"])
    if op["kind"] == "bloch3d":
        return oracle.check_frames(op, workloads.FIGURE_BATH, workloads.FIGURE_GRID)
    try:
        doc = json.loads(reply["stdout"])
    except ValueError as exc:
        return f"stdout is not a JSON document: {exc}"
    return oracle.check_derive(op, doc)


class Tally:
    """Outcomes of the checked calls of one pass."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.items = 0
        self.failed = 0
        self.output_bytes = 0

    def settle(self, op: dict, reply: dict) -> None:
        produced = _produced(op)
        self.output_bytes += len(reply["stdout"].encode()) + sum(map(os.path.getsize, produced))
        try:
            reason = check(op, reply)
        except (OSError, ArithmeticError, ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        for path in produced:
            os.remove(path)
        self.seconds.append(reply["seconds"])
        if reason is None:
            self.items += op["items"]
        else:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed: {' '.join(op['argv'])}: {reason}", file=sys.stderr)


def call(worker: Worker, op: dict) -> dict:
    if op["kind"] == "bloch3d":
        os.makedirs(op["directory"], exist_ok=True)
    return worker.request(argv=op["argv"])


def warm_up(worker: Worker, name: str, seed: int, scratch: Path) -> None:
    ops = workloads.stream(name, f"{seed}:warmup", str(scratch))
    for _ in range(WARMUP_OPS[name]):
        op = next(ops)
        call(worker, op)
        for path in _produced(op):
            os.remove(path)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(seconds: list[float]) -> tuple[float, int]:
    """The highest sample with at least 10 samples beyond it, and how many are.

    With 10 samples or fewer there is none; the maximum is reported instead.
    """
    ordered = sorted(seconds)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], len(ordered) - rank - 1


def end_to_end(name: str, seed: int, seconds: float, scratch: Path, full_domain: bool) -> dict:
    setup_seconds()  # also compiles the bytecode cache; not counted
    setups = []
    worker = Worker()
    try:
        warm_up(worker, name, seed, scratch)
        ops = workloads.stream(name, str(seed), str(scratch), full_domain)
        tally = Tally()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            # set-up samples are spread over the run, between calls, so one
            # slow phase of a shared machine does not set them all
            elapsed = 1.0 - (deadline - time.perf_counter()) / seconds
            if len(setups) < SETUP_REPEATS and len(setups) <= SETUP_REPEATS * elapsed:
                began = time.perf_counter()
                setups.append(setup_seconds())
                deadline += time.perf_counter() - began
                continue
            op = next(ops)
            tally.settle(op, call(worker, op))
        peak_rss = worker.request(rss=True)["peak_rss_mb"]
    finally:
        worker.close()
    tail_value, beyond = tail(tally.seconds)
    samples = len(tally.seconds)
    print(json.dumps({"workload": name, "seed": seed, "op_tail_ms": {
        "percentile": 100.0 * (samples - beyond) / samples, "samples": samples, "beyond": beyond}}))
    return {
        "attempted": samples,
        "failed": tally.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "items_per_s": metric(tally.items / sum(tally.seconds), "1/s"),
            "op_p50_ms": metric(statistics.median(tally.seconds) * 1e3, "ms"),
            "op_tail_ms": metric(tail_value * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss, "MiB"),
        },
    }


def per_layer(name: str, seed: int, seconds: float, scratch: Path, full_domain: bool) -> dict:
    count = max(1, round(seconds / (2.0 * NOMINAL_OP_SECONDS[name])))
    stream = workloads.stream(name, str(seed), str(scratch), full_domain)
    ops = [next(stream) for _ in range(count)]
    # the whole list always runs, so counts are exact for the seed; a program
    # too slow to finish it in time gets no result rather than smaller counts
    deadline = time.perf_counter() + TRACED_RUN_LIMIT_S
    worker = Worker()

    def run_all(tally: Tally) -> None:
        for op in ops:
            tally.settle(op, call(worker, op))
            if time.perf_counter() > deadline:
                raise TimeoutError(f"{count} calls did not finish within {TRACED_RUN_LIMIT_S:g} s")

    try:
        warm_up(worker, name, seed, scratch)
        plain = Tally()
        run_all(plain)
        worker.request(trace=True)
        traced = Tally()
        run_all(traced)
        spans = worker.request(trace=False)["spans"]
    finally:
        worker.close()
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = metric(spans[span]["calls"], "count")
        metrics[f"{span}.self_ms"] = metric(spans[span]["self_ms"], "ms")
    items = sum(op["items"] for op in ops)
    for span in PER_ITEM_SPANS:
        metrics[f"{span}.calls_per_item"] = metric(spans[span]["calls"] / items, "count/item")
    metrics["cli.output_bytes"] = metric(traced.output_bytes, "bytes")
    metrics["trace.overhead_frac"] = metric(sum(traced.seconds) / sum(plain.seconds) - 1.0, "frac")
    attempted = 2 * len(ops)
    failed = plain.failed + traced.failed
    metrics["failed_frac"] = metric(failed / attempted, "frac")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-domain", action="store_true",
                        help="draw points over the whole scaled GAD domain, "
                             "including where the program is known to fail")
    args = parser.parse_args(argv)
    if not (SRC / "kraus_forge" / "cli.py").is_file():
        print(f"no kraus_forge sources under {SRC}", file=sys.stderr)
        return 2

    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = per_layer if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, scratch, args.full_domain)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
