"""One workload process of the benchmark; `run.py` starts a fresh one per operation.

    python3 bench/child.py setup
    python3 bench/child.py run   '{"argv": [...]}'
    python3 bench/child.py trace '{"argv": [...], "trace_id": "...", "calls": [...]}'

Every mode imports `sigbound.cli` from the checkout's `src/` and prints one
JSON object as its last stdout line. `import_done` is `time.monotonic()` right
after that import returns; the clock is system-wide, so the parent subtracts
its own reading taken before the spawn to get the set-up time.

`trace` wraps the library entry points the CLI calls with spans (name, start,
end, parent, shared trace id), runs the CLI command, then the explicit layer
calls listed in `calls`. Spans stay in memory and are printed at the end.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import sigbound.cli  # noqa: E402  (timed: this is the set-up being measured)

IMPORT_DONE = time.monotonic()

import numpy  # noqa: E402  (already loaded by sigbound)
import sigbound.counting  # noqa: E402
import sigbound.engine  # noqa: E402
import sigbound.moments  # noqa: E402


class Tracer:
    """In-memory spans; the parent of a span is the span open when it starts."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "trace_id": self.trace_id,
            "span_id": len(self.spans) + 1,
            "parent_id": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["span_id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, describe) -> None:
        """Replace `module.attr` with a version that records a span per call."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)


def _bounds_attrs(args, kwargs, report) -> dict:
    return {
        "y": report.y,
        "z": report.z,
        "r_max": report.r_max,
        "threads": report.threads,
        "prebuilt": kwargs.get("table") is not None,
        "pair_count": report.pair_count,
        "lower": report.lower_total.value,
        "upper": report.upper_total.value,
        "covered_mass": report.covered_mass,
    }


def _table_attrs(args, kwargs, table) -> dict:
    return {"y": table.y, "r_max": table.r_max}


def _count_attrs(args, kwargs, result) -> dict:
    return {"x": args[0], "count": result[0]}


def _block_attrs(args, kwargs, result) -> dict:
    return {"lo": args[0], "hi": args[1]}


def _call_cli(argv: list) -> dict:
    """cli.main with stdout captured; wall time from entry to return."""
    out = io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = sigbound.cli.main(argv)
    except Exception:  # the benchmark counts it as a failed operation
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit_code": code, "stdout": out.getvalue(), "error": error}


def _trace(spec: dict) -> dict:
    tracer = Tracer(spec["trace_id"])
    tracer.wrap(sigbound.cli, "run_bounds", "engine.run_bounds", _bounds_attrs)
    tracer.wrap(sigbound.cli, "count_sigma_ge", "counting.count_sigma_ge", _count_attrs)
    tracer.wrap(sigbound.engine, "build_moment_table", "moments.build_moment_table", _table_attrs)
    tracer.wrap(sigbound.counting, "sigma_block", "counting.sigma_block", _block_attrs)
    if hasattr(sigbound.engine, "_engine_consts"):  # ratio grid and constants, inside run_bounds
        tracer.wrap(sigbound.engine, "_engine_consts", "engine.consts", lambda *_: {})

    with tracer.span("cli.main", argv=spec["argv"]) as attrs:
        result = _call_cli(spec["argv"])
        attrs.update(exit_code=result["exit_code"])
    table = None
    for call in spec["calls"]:
        if call["op"] == "table":
            with tracer.span("moments.build_moment_table") as attrs:
                table = sigbound.moments.build_moment_table(call["y"], call["r_max"])
                attrs.update(_table_attrs((), {}, table))
        elif call["op"] == "run_bounds":
            with tracer.span("engine.run_bounds") as attrs:
                report = sigbound.engine.run_bounds(
                    call["y"], call["z"], call["r_max"], threads=call["threads"], table=table
                )
                attrs.update(_bounds_attrs((), {"table": table}, report))
        else:
            raise ValueError(f"unknown traced call {call['op']!r}")
    result["spans"] = tracer.spans
    return result


def main(argv: list) -> int:
    mode = argv[1]
    spec = json.loads(argv[2]) if len(argv) > 2 else {}
    if mode == "setup":
        result = {}
    elif mode == "run":
        result = _call_cli(spec["argv"])
    elif mode == "trace":
        result = _trace(spec)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result.update(
        import_done=IMPORT_DONE,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        numpy_version=numpy.__version__,
        sigbound_file=sigbound.cli.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
