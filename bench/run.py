"""sigbound benchmark: end-to-end and per-layer timings of the certified bracket.

    python3 bench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each operation is a fresh interpreter
(`bench/child.py`) that imports `sigbound.cli` from `src/` and calls
`cli.main([... "--format", "json"])`; its output is checked against the
reference values below. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A fuller record (machine,
versions, commit, per-operation numbers, spans) goes to `bench/results/`.

The workloads are fixed parameter sets with no random input: `--seed` is
accepted and recorded, and changes no work. See `bench/README.md` for why each
workload and metric exists and which layer change should move it.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from typing import Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
RESULTS = os.path.join(BENCH, "results")

# Any valid certificate contains the density, and the density lies in the
# published bracket [0.0539171, 0.0549446].
PUBLISHED_LOWER = 0.0539171
PUBLISHED_UPPER = 0.0549446

# Set-up samples per run for setup_s. One sample is a pair of processes
# started back to back: one that imports sigbound.cli and one that imports
# only numpy (REFERENCE_CMD). A pair is taken before every operation, and the
# run tops up to SETUP_MIN, or to SETUP_MAX while time is left. A first,
# discarded pair compiles bytecode. Start-up speed on a shared machine drifts
# by a third between runs taken tens of minutes apart, and the numpy-only
# process, which does most of the same work and is the same on every commit,
# drifts with it. setup_s is the median over the run's pairs of
# SETUP_REF_S * (sigbound set-up / numpy-only set-up): the set-up time at the
# start-up speed where importing numpy alone takes SETUP_REF_S.
SETUP_MIN = 5
SETUP_MAX = 12
SETUP_REF_S = 0.15
REFERENCE_CMD = [sys.executable, "-c", "import time, numpy; print(time.monotonic())"]

# The traced pool calls: POOL_PAIRS interleaved serial/parallel run_bounds
# pairs at POOL_Z, where _split_tasks gives more tasks than the threads * 8
# batches the pool fills, while the walk itself takes a few ms.
POOL_PAIRS = 5
POOL_Z = 1000

# On a shared machine the speed of pure-Python code drifts, by up to 40% over
# tens of seconds, and a fixed loop that reads a table too large for the
# private caches slows down with it. The runner times that loop right before
# and right after each operation, and scales the bounds workloads' median
# wall_s by CALIBRATION_REF_S over the run's mean loop time. Single loop times
# are too noisy to scale single operations by. The sieve's numpy work does not
# slow down with the loop, so its wall_s is left unscaled. The loop runs in the
# runner, so it adds nothing to the operation's memory.
CALIBRATION_REF_S = 0.1
CALIBRATION_STEPS = 250_000
_CALIBRATION_DATA = [float(i) for i in range(1 << 18)]
CHILD_TIMEOUT = 170.0
RSS_POLL_S = 0.05


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bounds" or "sieve"
    reference: int  # exact pair_count (bounds) or count (sieve) of the seed
    y: int = 0
    z: int = 0
    r_max: int = 0
    threads: int = 1
    x: int = 0
    ladder: tuple = ()  # extra z values timed in the traced run

    @property
    def argv(self) -> list:
        if self.kind == "sieve":
            return ["empirical", "--x", str(self.x), "--format", "json"]
        return ["bounds", "--y", str(self.y), "--z", str(self.z), "--rmax", str(self.r_max),
                "--threads", str(self.threads), "--format", "json"]

    @property
    def work(self) -> int:
        """Units of work behind work_per_s: cells enumerated, or integers sieved."""
        return self.reference if self.kind == "bounds" else self.x


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep", "bounds", 1_608_738, y=31, z=10**8, r_max=200, threads=1,
                 ladder=(10**6, 10**7, 10**8, 10**9)),
        Workload("deep-par", "bounds", 1_608_738, y=31, z=10**8, r_max=200, threads=2),
        Workload("wide", "bounds", 148_128, y=353, z=10**5, r_max=500, threads=1),
        Workload("sieve", "sieve", 546_879, x=10**7),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "width": "density",
    "peak_rss_mb": "MB",
}


def _sci(z: int) -> str:
    k = len(str(z)) - 1
    return f"1e{k}" if z == 10**k else str(z)


def ladder_units(ladder) -> dict:
    units = {}
    for z in ladder:
        units[f"engine.ladder.z{_sci(z)}_s"] = "s"
        units[f"engine.ladder.z{_sci(z)}_width"] = "density"
    return units


PER_LAYER_UNITS = {
    "moments.table_s": "s",
    "engine.fixed_s": "s",
    "engine.cells_s": "s",
    "engine.cell_rate": "cells/s",
    "engine.pair_count": "count",
    "engine.pool_s": "s",
    "engine.parallel_efficiency": "ratio",
    "engine.tail_mass": "density",
    "engine.cell_gap": "density",
    **ladder_units(WORKLOADS["deep"].ladder),
    "counting.sigma_block_s": "s",
    "counting.compare_s": "s",
    "counting.blocks": "count",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The program cannot be run at all: no result is printed."""


# ---------------------------------------------------------------------------
# machine speed and child processes
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds for the calibration loop: the machine's current speed."""
    data = _CALIBRATION_DATA
    nxt = math.nextafter
    inf = math.inf
    idx = 0
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        idx = (idx * 1103515245 + 12345) & 0x3FFFF
        acc = nxt(acc + data[idx], inf)
    return time.perf_counter() - t0


def _descendants(pid: int) -> list:
    out = []
    todo = [pid]
    while todo:
        p = todo.pop()
        kids = []
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    kids += [int(k) for k in fh.read().split()]
        except OSError:
            pass  # the process ended between two reads
        out += kids
        todo += kids
    return out


def _hwm_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _spawn(mode: str, spec: Optional[dict] = None, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run child.py once; returns its result plus set-up and descendant peaks.

    While the child runs, a thread polls the peak resident set (VmHWM) of every
    descendant, so fork workers are counted; the child reports its own peak.
    """
    cmd = [sys.executable, CHILD, mode]
    if spec is not None:
        cmd.append(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    peaks: dict = {}
    done = threading.Event()

    def poll():
        while not done.wait(RSS_POLL_S):
            for pid in _descendants(proc.pid):
                kb = _hwm_kb(pid)
                if kb is not None:
                    peaks[pid] = max(kb, peaks.get(pid, 0))

    sampler = threading.Thread(target=poll, daemon=True)
    sampler.start()
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any fork workers
        out, err = proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s", "stderr": err[-2000:]}
    finally:
        done.set()
        sampler.join()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited with code {proc.returncode}", "stderr": err[-2000:]}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": "child printed no result", "stderr": err[-2000:]}
    result["setup_s"] = result["import_done"] - spawned
    result["peak_rss_mb"] = (result["maxrss_kb"] + sum(peaks.values())) / 1024.0
    result["children"] = len(peaks)
    if os.path.dirname(os.path.abspath(result["sigbound_file"])) != os.path.join(ROOT, "src", "sigbound"):
        raise BenchError(f"imported sigbound from {result['sigbound_file']}, not from this checkout")
    return result


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _loggable(op: dict) -> dict:
    return {k: v for k, v in op.items() if k not in ("stdout", "spans")}


def check(w: Workload, result: dict) -> list:
    """Problems with one operation's result; an empty list means it passed."""
    if result.get("error"):
        return [result["error"].strip().splitlines()[-1]]
    if result.get("exit_code") != 0:
        return [f"cli.main returned {result.get('exit_code')}"]
    try:
        out = json.loads(result["stdout"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["cli.main printed no JSON"]
    problems = []
    if w.kind == "sieve":
        if out.get("count") != w.reference:
            problems.append(f"count {out.get('count')} != reference {w.reference}")
        return problems
    lower, upper = out.get("lower"), out.get("upper")
    if out.get("certified") is not True:
        problems.append("certified is not true")
    if not (isinstance(lower, float) and isinstance(upper, float) and 0.0 <= lower <= upper <= 1.0):
        problems.append(f"bracket [{lower}, {upper}] is not inside [0, 1]")
    elif not (lower <= PUBLISHED_UPPER and upper >= PUBLISHED_LOWER):
        problems.append(f"bracket [{lower}, {upper}] misses the published [{PUBLISHED_LOWER}, {PUBLISHED_UPPER}]")
    if out.get("pair_count") != w.reference:
        problems.append(f"pair_count {out.get('pair_count')} != reference {w.reference}")
    return problems


def cli_width(w: Workload, ops: list) -> float:
    """upper - lower of the printed, outward-rounded certificate (median over ops).

    The exact empirical count certifies nothing about the density, so on the
    sieve workload, or when no operation printed a bracket, the bracket a user
    holds is the trivial [0, 1].
    """
    if w.kind != "bounds":
        return 1.0
    widths = []
    for op in ops:
        try:
            out = json.loads(op["stdout"].strip().splitlines()[-1])
            widths.append(out["upper"] - out["lower"])
        except (KeyError, ValueError, IndexError, TypeError):
            continue
    return statistics.median(widths) if widths else 1.0


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def _calibrated_spawn(mode: str, spec: Optional[dict] = None, timeout: float = CHILD_TIMEOUT) -> dict:
    before = calibrate()
    res = _spawn(mode, spec, timeout)
    res["calibration_s"] = (before + calibrate()) / 2
    return res


def _reference_setup() -> float:
    """Start-up of a process that imports only numpy; the same on every commit."""
    spawned = time.monotonic()
    try:
        out = subprocess.run(REFERENCE_CMD, cwd=BENCH, capture_output=True, text=True,
                             timeout=60, check=True).stdout
        return float(out.split()[-1]) - spawned
    except (OSError, ValueError, IndexError, subprocess.SubprocessError) as exc:
        raise BenchError(f"cannot start the numpy-only reference process: {exc}") from exc


def _setup_pair() -> tuple:
    """(sigbound set-up, numpy-only set-up) of two processes started back to back."""
    res = _spawn("setup")
    if "setup_s" not in res:
        raise BenchError(f"cannot import sigbound.cli: {res.get('error')}\n{res.get('stderr', '')}")
    return res["setup_s"], _reference_setup()


def run_untraced(w: Workload, seconds: float) -> tuple:
    t0 = time.monotonic()
    deadline = t0 + seconds
    _setup_pair()  # warm-up: compiles bytecode on a fresh checkout
    pair_s = time.monotonic() - t0
    pairs = []
    ops = []
    while True:
        pairs.append(_setup_pair())
        started = time.monotonic()
        res = _calibrated_spawn("run", {"argv": w.argv}, timeout=CHILD_TIMEOUT - (started - t0))
        res["problems"] = check(w, res)
        res["op_s"] = time.monotonic() - started
        ops.append(res)
        if time.monotonic() + pair_s + max(op["op_s"] for op in ops) > deadline:
            break
    timed = [op for op in ops if "wall_s" in op]
    if not timed:
        raise BenchError(f"no operation of {w.name} ran: {ops[-1].get('error')}")
    while len(pairs) < SETUP_MIN or (len(pairs) < SETUP_MAX and time.monotonic() + 2 * pair_s < deadline):
        pairs.append(_setup_pair())
    raw_wall = statistics.median(op["wall_s"] for op in timed)
    speed = CALIBRATION_REF_S / statistics.mean(op["calibration_s"] for op in ops)
    wall = raw_wall * speed if w.kind == "bounds" else raw_wall
    metrics = {
        "wall_s": wall,
        "setup_s": SETUP_REF_S * statistics.median(s / ref for s, ref in pairs),
        "work_per_s": w.work / wall,
        "width": cli_width(w, timed),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed),
    }
    extra = {
        "raw_wall_s": raw_wall,
        "speed_factor": speed,
        "setup_pairs": pairs,
    }
    return ops, metrics, extra


# ---------------------------------------------------------------------------
# traced run: per-layer metrics from spans
# ---------------------------------------------------------------------------

def trace_calls(w: Workload) -> list:
    """Explicit layer calls of the traced run, all with one prebuilt table."""
    if w.kind != "bounds":
        return []

    def rb(z, threads):
        return {"op": "run_bounds", "y": w.y, "z": z, "r_max": w.r_max, "threads": threads}

    calls = [{"op": "table", "y": w.y, "r_max": w.r_max}, rb(2, 1)]
    if w.threads > 1:
        calls += [rb(POOL_Z, t) for _ in range(POOL_PAIRS) for t in (1, w.threads)]
    calls += [rb(z, 1) for z in sorted(set(w.ladder) | {w.z})]
    if w.threads > 1:
        calls += [rb(w.z, w.threads)]
    return calls


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(w: Workload, spans: list, width: float, untraced_wall: float) -> dict:
    """Derive the per-layer table from one traced run's spans.

    A layer the workload does not enter reports 0. The child wraps the
    engine's grid build (`_engine_consts`) in an `engine.consts` span where
    the engine has one; `rest` is a run_bounds call without it, which keeps
    the grid build's run-to-run spread out of the differences below.
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    top = [s for s in spans if s["parent_id"] is None]
    cli = next(s for s in top if s["name"] == "cli.main")
    lib = next(s for s in spans if s["parent_id"] == cli["span_id"])
    m["cli.overhead_s"] = _dur(cli) - _dur(lib)
    m["trace.overhead_s"] = _dur(cli) - untraced_wall
    if w.kind == "sieve":
        blocks = [s for s in spans if s["parent_id"] == lib["span_id"] and s["name"] == "counting.sigma_block"]
        m["counting.sigma_block_s"] = sum(_dur(s) for s in blocks)
        m["counting.compare_s"] = _dur(lib) - m["counting.sigma_block_s"]
        m["counting.blocks"] = float(len(blocks))
        return m

    def rest(span):
        return _dur(span) - sum(_dur(s) for s in spans
                                if s["parent_id"] == span["span_id"] and s["name"] == "engine.consts")

    table = next(s for s in top if s["name"] == "moments.build_moment_table")
    rb: dict = {}  # (z, threads) -> spans in call order
    for s in top:
        if s["name"] == "engine.run_bounds":
            rb.setdefault((s["attrs"]["z"], s["attrs"]["threads"]), []).append(s)
    one_cell = rb[(2, 1)][0]
    cells = rest(rb[(w.z, 1)][0]) - rest(one_cell)
    m["moments.table_s"] = _dur(table)
    m["engine.fixed_s"] = _dur(one_cell)
    m["engine.cells_s"] = cells
    m["engine.pair_count"] = float(lib["attrs"]["pair_count"])
    m["engine.cell_rate"] = lib["attrs"]["pair_count"] / cells if cells > 0 else 0.0
    m["engine.tail_mass"] = 1.0 - lib["attrs"]["covered_mass"]
    m["engine.cell_gap"] = width - m["engine.tail_mass"]
    if w.threads > 1:
        ser, par = rb[(POOL_Z, 1)], rb[(POOL_Z, w.threads)]
        m["engine.pool_s"] = statistics.median(rest(b) - rest(a) for a, b in zip(ser, par))
        m["engine.parallel_efficiency"] = rest(rb[(w.z, 1)][0]) / (w.threads * rest(rb[(w.z, w.threads)][0]))
    for z in w.ladder:
        point = rb[(z, 1)][0]
        m[f"engine.ladder.z{_sci(z)}_s"] = _dur(point)
        m[f"engine.ladder.z{_sci(z)}_width"] = point["attrs"]["upper"] - point["attrs"]["lower"]
    return m


PREDICTED_HEAVIEST = {
    "deep": "engine.cells_s",
    "deep-par": "engine.cells_s",
    "wide": "engine.fixed_s",
    "sieve": "counting.sigma_block_s",
}


def predictions(w: Workload, m: dict) -> list:
    """Which layer should dominate this workload; mismatches are reported, not hidden."""
    if w.kind == "sieve":
        heavy = ("counting.sigma_block_s", "counting.compare_s")
    else:
        heavy = ("moments.table_s", "engine.fixed_s", "engine.cells_s")
    expect = PREDICTED_HEAVIEST.get(w.name, "none")
    got = max(heavy, key=m.get)
    pool = f"pool_s={m['engine.pool_s']:.4f} efficiency={m['engine.parallel_efficiency']:.3f}"
    if w.threads > 1:
        pool_ok = m["engine.pool_s"] > 0.0 and m["engine.parallel_efficiency"] > 0.0
        pool_expect = "pool_s > 0 and efficiency > 0"
    else:
        pool_ok = m["engine.pool_s"] == 0.0 and m["engine.parallel_efficiency"] == 0.0
        pool_expect = "pool not entered (both 0)"
    return [("heaviest layer", expect, got, got == expect),
            ("pool", pool_expect, pool, pool_ok)]


def run_traced(w: Workload) -> tuple:
    t0 = time.monotonic()
    ref = _spawn("run", {"argv": w.argv})
    ref["problems"] = check(w, ref)
    spec = {"argv": w.argv, "trace_id": uuid.uuid4().hex, "calls": trace_calls(w)}
    res = _spawn("trace", spec, timeout=CHILD_TIMEOUT - (time.monotonic() - t0))
    res["problems"] = check(w, res)
    spans = res.get("spans", [])
    try:
        metrics = layer_metrics(w, spans, cli_width(w, [res]), ref.get("wall_s", 0.0))
    except (StopIteration, KeyError):  # a layer call failed before its span closed
        res["problems"].append("traced calls did not complete")
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    return [ref, res], metrics, {"spans": spans, "predictions": predictions(w, metrics)}


# ---------------------------------------------------------------------------
# run record and entry point
# ---------------------------------------------------------------------------

def run_record(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
        "seed_note": "workloads are fixed parameter sets; the seed is recorded and changes no work",
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record, whose `result` is the printed line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sigbound", "cli.py")):
        raise BenchError(f"no sigbound sources under {os.path.join(ROOT, 'src')}")
    if trace:
        ops, metrics, extra = run_traced(w)
        units = {**PER_LAYER_UNITS, **ladder_units(w.ladder)}
    else:
        ops, metrics, extra = run_untraced(w, seconds)
        units = END_TO_END_UNITS
    failed = sum(1 for op in ops if op.get("problems"))
    numpy_version = next((op["numpy_version"] for op in ops if "numpy_version" in op), "unknown")
    return {
        "workload": w.name,
        "trace": trace,
        "record": run_record(seed, numpy_version),
        "operations": [_loggable(op) for op in ops],
        **extra,
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def _report(w: Workload, full: dict) -> None:
    res = full["result"]
    print(f"workload {full['workload']}  trace={int(full['trace'])}  record {json.dumps(full['record'])}")
    for op in full["operations"]:
        if op.get("problems"):
            print(f"  failed operation: {'; '.join(op['problems'])}")
    print(f"  error_rate = {res['failed']}/{res['attempted']} operations = "
          f"{res['failed'] / res['attempted']:.3f} ratio")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not full["trace"]:
        print(f"  ({'n_per_s' if w.kind == 'sieve' else 'cells_per_s'} = work_per_s)")
    for what, expect, got, ok in full.get("predictions", []):
        print(f"  prediction {what}: expected {expect}, got {got}: {'ok' if ok else 'MISMATCH'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        full = run(w, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(full, fh, indent=1)
    _report(w, full)
    print(json.dumps(full["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
