"""Benchmark worker: runs kraus-forge CLI calls in process, one at a time.

Reads one JSON request per line on stdin and answers with one JSON line on
stdout:

    {"argv": [...]}    run kraus_forge.cli.main(argv) with stdout captured;
                       reply {"rc", "seconds", "stdout", "error"}
    {"trace": true}    wrap the traced functions (see SPANS); reply {}
    {"trace": false}   restore them; reply {"spans": {name: {"calls", "self_ms"}}}
    {"rss": true}      reply {"peak_rss_mb": peak resident set of this process, MiB}

The worker imports only what the CLI imports, so its peak resident memory
belongs to the workload. The oracle runs in the parent process.

Objects that exist once the CLI is imported are frozen out of garbage
collection. A user runs one call per process, where a full collection is
rare; in this long-lived loop, every full collection would rescan numpy and
the package (about 8 ms, every ~750 single-point calls) and set the tail.
Before each call, outside the timed region, the worker also collects the
garbage of the calls before it, so that every call starts from the same
collector state: otherwise about one single-point call in 340 carries a
full collection and some 5 ms more, and whether ten of those land in a run
decides op_tail_ms.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import sys
import time
from array import array

#: traced public functions, by defining module of kraus_forge
SPANS = {
    "cli": ("main", "build_parser", "cmd_derive", "cmd_verify", "cmd_figure"),
    "linalg": ("matrix_exp", "hermitian_eig"),
    "kraus": ("propagate", "choi_from_propagator", "kraus_from_choi",
              "kraus_set_to_dict", "kraus_to_choi", "choi_distance"),
    "gad": ("hamiltonian_shift", "rates_from_physics", "gad_kraus_closed",
            "gad_F_closed", "reference_gad_kraus"),
    "pd": ("pd_rate_from_physics", "pd_kraus"),
    "bloch": ("bloch_map", "sample_ellipsoid"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in SPANS.items() for name in names)


class Tracer:
    """Spans around the traced functions, kept in memory until summarized.

    A function is replaced at every binding site in the kraus_forge module
    namespaces (``cli`` and ``kraus`` each hold their own ``hermitian_eig``),
    so a call is recorded whichever name it goes through.
    """

    def __init__(self) -> None:
        # one entry per call, in call order: span index into SPAN_NAMES,
        # parent call index (-1 for none), start and end. Arrays hold no
        # object references, so the collection before each call does not
        # rescan the records, however many there are
        self.span = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for module, names in SPANS.items():
            namespace = importlib.import_module(f"kraus_forge.{module}")
            for name in names:
                original = getattr(namespace, name)
                span = SPAN_NAMES.index(f"{module}.{name}")
                wrappers[id(original)] = (original, self._wrap(span, original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "kraus_forge" and not module_name.startswith("kraus_forge."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, span: int, function):
        spans, parents, starts, ends = self.span, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Calls and self time per span; self time excludes child spans."""
        child_seconds = [0.0] * len(self.span)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                child_seconds[parent] += end - start
        calls = [0] * len(SPAN_NAMES)
        self_seconds = [0.0] * len(SPAN_NAMES)
        for span, start, end, inner in zip(self.span, self.start, self.end, child_seconds):
            calls[span] += 1
            self_seconds[span] += end - start - inner
        return {name: {"calls": calls[i], "self_ms": self_seconds[i] * 1e3}
                for i, name in enumerate(SPAN_NAMES)}


def clear_caches() -> None:
    """Empty every functools cache reachable from the kraus_forge modules.

    A user runs one call per process, so no call finds the cache of an
    earlier one; this loop repeats inputs (verify's always), and without
    this a memoized call would be timed as nearly free.
    """
    for module_name, module in list(sys.modules.items()):
        if module_name != "kraus_forge" and not module_name.startswith("kraus_forge."):
            continue
        for value in list(vars(module).values()):
            while value is not None:  # through tracing wrappers to the cached function
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                value = getattr(value, "__wrapped__", None)


def run_cli(cli, argv: list[str]) -> dict:
    clear_caches()
    gc.collect()
    captured = io.StringIO()
    rc = None
    error = None
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising call is a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": captured.getvalue(), "error": error}


def peak_rss_mib() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    resident set at the time it started this process.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> None:
    from kraus_forge import cli

    gc.collect()
    gc.freeze()
    channel = sys.stdout
    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            reply = run_cli(cli, request["argv"])
        elif request.get("trace"):
            tracer = Tracer()
            tracer.install()
            reply = {}
        elif "trace" in request:
            tracer.restore()
            reply = {"spans": tracer.summary()}
            tracer = None
        elif "rss" in request:
            reply = {"peak_rss_mb": peak_rss_mib()}
        else:
            raise ValueError(f"unknown request {request!r}")
        channel.write(json.dumps(reply) + "\n")
        channel.flush()


if __name__ == "__main__":
    main()
