"""Command-line interface.

Results go to stdout, progress to stderr, so pipes stay clean. Exit codes:
0 success, 2 invalid parameters, 3 unsupported parameters, 4 stdout could
not be written (a full disk, say), with one line on stderr; a reader that
closes stdout early (`| head`) ends the command quietly, with 0. Certified
numbers are printed to 10 significant digits rounded outward (lower bounds
down, upper bounds up), so the printed digits remain certificates.
"""
from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from .counting import count_sigma_ge, moment_sum
from .engine import cell_density, run_bounds
from .errors import InvalidParameterError, UnsupportedParameterError
from .moments import build_moment_table

_INT_RE = re.compile(r"(\d+)(?:[eE](\d+))?")


def scaled_int(text: str) -> int:
    """Exact integer, optionally in scientific notation with an integer
    mantissa ('1e13'); fractional mantissas are rejected."""
    m = _INT_RE.fullmatch(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected an integer like 100000 or 1e5, got {text!r}"
        )
    return int(m.group(1)) * 10 ** int(m.group(2) or 0)


def _outward(x: float, down: bool) -> float:
    """Round to 10 significant digits away from the certified side."""
    if not math.isfinite(x):
        return x
    rounding = decimal.ROUND_FLOOR if down else decimal.ROUND_CEILING
    ctx = decimal.Context(prec=10, rounding=rounding)
    return float(ctx.plus(decimal.Decimal(x)))


def _fmt_cert(x: float, down: bool) -> str:
    return f"{_outward(x, down):.10g}"


def _exact_proportion(count: int, x: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = 25
        q = decimal.Decimal(count) / decimal.Decimal(x)
    text = format(q.normalize(), "f")
    return text


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sigbound",
        description="Certified bounds and exact counts for the density of "
        "n with sigma(2n+1) >= sigma(2n).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="certified density bracket from cell enumeration")
    b.add_argument("--y", type=scaled_int, default=31, help="smoothness bound (default 31)")
    b.add_argument("--z", type=scaled_int, default=10**8, help="enumerate cells with ab <= z (default 1e8)")
    b.add_argument("--rmax", type=scaled_int, default=200, help="maximum moment order (default 200)")
    b.add_argument("--threads", type=scaled_int, default=1,
                   help="worker threads, capped at the usable cores (default 1)")
    b.add_argument("--flush-every", type=scaled_int, default=0,
                   help="emit an intermediate certified bracket after each chunk that crosses a multiple of N cells")
    b.add_argument("--format", choices=("text", "json"), default="text")

    e = sub.add_parser("empirical", help="exact count of n <= x with sigma(2n+1) >= sigma(2n)")
    e.add_argument("--x", type=scaled_int, required=True)
    e.add_argument("--format", choices=("text", "json"), default="text")

    d = sub.add_parser("dens-s", help="exact density of one (a, b) cell")
    d.add_argument("--a", type=scaled_int, required=True)
    d.add_argument("--b", type=scaled_int, required=True)
    d.add_argument("--y", type=scaled_int, required=True)
    d.add_argument("--format", choices=("text", "json"), default="text")

    l = sub.add_parser("lambda", help="table of certified moment-mean upper bounds")
    l.add_argument("--y", type=scaled_int, required=True)
    l.add_argument("--rmax", type=scaled_int, default=1)
    l.add_argument("--format", choices=("text", "json"), default="text")

    m = sub.add_parser("moment", help="empirical moment sums over one cell")
    m.add_argument("--a", type=scaled_int, required=True)
    m.add_argument("--b", type=scaled_int, required=True)
    m.add_argument("--y", type=scaled_int, required=True)
    m.add_argument("--r", type=scaled_int, required=True)
    m.add_argument("--x", type=scaled_int, required=True)
    m.add_argument("--format", choices=("text", "json"), default="text")
    return p


def _finite(v: Optional[float]) -> Optional[float]:
    """v for JSON: None (null) when it is missing or not finite."""
    return v if v is not None and math.isfinite(v) else None


def _emit(payload: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_bounds(args) -> int:
    def progress(part, flush):
        print(
            f"{'flush' if flush else 'progress'}: pairs={part.pair_count} "
            f"covered>={_fmt_cert(part.covered_mass, True)} "
            f"lower>={_fmt_cert(part.lower_total.value, True)} "
            f"upper<={_fmt_cert(part.upper_total.value, False)}",
            file=sys.stderr,
        )

    report = run_bounds(
        args.y,
        args.z,
        args.rmax,
        threads=args.threads,
        progress=progress,
        flush_every=args.flush_every,
    )
    lower = _outward(report.lower_total.value, True)
    upper = _outward(report.upper_total.value, False)
    payload = {
        "command": "bounds",
        "params": {"y": report.y, "z": report.z, "r_max": report.r_max, "threads": report.threads},
        "lower": lower,
        "upper": upper,
        "covered_mass": report.covered_mass,
        "pair_count": report.pair_count,
        "elapsed_seconds": round(report.elapsed_seconds, 3),
        "certified": True,
    }
    lines = [
        f"bounds  y={report.y}  z={report.z}  r_max={report.r_max}  threads={report.threads}",
        f"pairs enumerated : {report.pair_count}",
        f"covered mass     : >= {_fmt_cert(report.covered_mass, True)}",
        f"certified bracket: {lower:.10g} <= density <= {upper:.10g}",
        f"elapsed          : {report.elapsed_seconds:.2f} s",
    ]
    _emit(payload, lines, args.format)
    return 0


def _cmd_empirical(args) -> int:
    count, _ = count_sigma_ge(args.x)
    prop = _exact_proportion(count, args.x)
    payload = {
        "command": "empirical",
        "params": {"x": args.x},
        "count": count,
        "proportion": float(prop),
    }
    _emit(payload, [f"{count} / {args.x} = {prop}"], args.format)
    return 0


def _cmd_dens_s(args) -> int:
    exact = cell_density(args.a, args.b, args.y)
    num, den = exact.numerator, exact.denominator
    # from y of about 1.5e4 the denominator has more digits than Python's
    # default int-to-str limit (4300) allows
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        dens = f"{num}/{den}"
    finally:
        sys.set_int_max_str_digits(limit)
    payload = {
        "command": "dens-s",
        "params": {"a": args.a, "b": args.b, "y": args.y},
        "dens": dens,
        "dens_float": num / den,
    }
    lines = [f"dens S({args.a}, {args.b}) with y={args.y} = {dens} = {num / den:.10g}"]
    _emit(payload, lines, args.format)
    return 0


def _cmd_lambda(args) -> int:
    table = build_moment_table(args.y, args.rmax)
    rows = [[r, _finite(table.values[r]), _finite(table.roots[r])] for r in range(1, args.rmax + 1)]
    payload = {
        "command": "lambda",
        "params": {"y": args.y, "r_max": args.rmax},
        "rows": rows,
    }
    lines = [f"moment-mean upper bounds, y={args.y}"]
    for r, v, w in rows:
        vtxt = "saturated" if v is None else _fmt_cert(v, False)
        wtxt = "saturated" if w is None else _fmt_cert(w, False)
        lines.append(f"r={r}  upper<={vtxt}  root<={wtxt}")
    _emit(payload, lines, args.format)
    return 0


def _cmd_moment(args) -> int:
    # validate the cell before the x-sized sieve runs
    dens = cell_density(args.a, args.b, args.y)
    s_odd, s_even = moment_sum(args.a, args.b, args.y, args.r, args.x)
    scale = float(dens) * args.x  # 0.0 when it underflows
    norm_odd, norm_even = (s / scale if scale else None for s in (s_odd, s_even))
    payload = {
        "command": "moment",
        "params": {"a": args.a, "b": args.b, "y": args.y, "r": args.r, "x": args.x},
        "sum_odd": _finite(s_odd),
        "sum_even": _finite(s_even),
        "normalized_odd": _finite(norm_odd),
        "normalized_even": _finite(norm_even),
    }
    odd_txt, even_txt = ("n/a" if v is None else f"{v:.8f}" for v in (norm_odd, norm_even))
    lines = [
        f"cell ({args.a}, {args.b}), y={args.y}, r={args.r}, x={args.x}",
        f"sum h^r(2n+1) = {s_odd:.10g}",
        f"sum h^r(2n)   = {s_even:.10g}",
        f"x * dens      = {scale:.10g}",
        f"normalized    : odd {odd_txt}  even {even_txt}",
    ]
    _emit(payload, lines, args.format)
    return 0


_DISPATCH = {
    "bounds": _cmd_bounds,
    "empirical": _cmd_empirical,
    "dens-s": _cmd_dens_s,
    "lambda": _cmd_lambda,
    "moment": _cmd_moment,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except UnsupportedParameterError as exc:
        print(f"unsupported parameter: {exc}", file=sys.stderr)
        return 3
    except InvalidParameterError as exc:  # InvalidCellError included
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # here, so that a failed write raises inside the try
    except OSError as exc:  # stdout is the one file the commands write
        if isinstance(exc, BrokenPipeError):
            code = 0  # the reader closed stdout early (`| head`): what it read stands
        else:
            print(f"cannot write the output: {exc.strerror or exc}", file=sys.stderr)
            code = 4
        # stdout on devnull, so that the exit's flush raises no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
