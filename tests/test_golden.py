"""Pinned bits of the certified totals, the moment tables and the bound
curves.

The totals were taken when a run given no table folded the primes in
(y, 1009] into its bound curve (the fold lemma of `sigbound.moments`). Five
earlier sets of totals stay pinned as outer bounds, each at least as loose
as the one after it: those of the curve capped at 1/2 (the symmetry lemma)
that folded nothing, which a run given a table at y still gives bit for
bit, and whose curve digests stay pinned on the grid points above 1; those
of the uncapped curve, taken when the ratio grid became the
doubles 1 + i 2^-16 on [1, 2) and 2 + j 2^-15 on [2, 4], with each cell's
slot read off the bits of its ratio (their curve digests now pin the
uncapped moment curve of `bound_curves`); before them those of the
geometric grid from 1 + 2^-16 to 32; before them those of the tables
that divided each density factor by its directed value at the end; and
before them those of the engine that rounded each chunk total one ULP
outward and merged them with directed adds (the cell totals have since been
exact integer sums, rounded once). The tables were taken from the engine as
it stood before its numpy kernels switched from np.nextafter and math.fsum
to the int64-view ULP steps and exact_sum of `sigbound.dirround`; the
y = 353, r_max = 8200 table digest from the table loop that still clamped
every step and evaluated each order's tail factor on its own. Any change
of the rounding path that moves one bit of a total, a table entry or a curve
point fails here. A digest is cheap where the full-grid oracle
(`oracles.ratio_grids_per_r`) takes seconds.
"""
import hashlib
import math
import struct

import numpy as np
import pytest

from sigbound.dirround import ulp_dn
from sigbound.engine import _ONE_SLOT, _engine_consts, _grid, run_bounds
from sigbound.moments import bound_curves, build_moment_table

TOTALS = ("lower_total", "upper_total", "covered_lo")

GOLDEN_31 = ("0x1.aab428728353ap-5", "0x1.46c801464c06fp-4",
             "0x1.f21b4df9c19e8p-1")
GOLDEN_353 = ("0x1.ccb68480ffb18p-6", "0x1.b6cba0160f628p-2",
              "0x1.331ad00ec0cccp-1")
# y = 2 has no odd prime: one b class, one mask word of zeros. y = 3 has one.
GOLDEN_2 = ("0x1.bc884657c0b53p-5", "0x1.c30c3957673d8p-5", "0x1.fffffffffffeep-1")
GOLDEN_3 = ("0x1.bd0202f0a2ffcp-5", "0x1.c30e702a45259p-5", "0x1.fffcce11ac84fp-1")

# The totals of the capped curve that folds nothing. At y = 2 every cell is
# (1, 2^k), with q = h(2^k) >= 3/2, where the moment curve is already below
# 1/2 (0.465 at 3/2): the cap moved no bit of the uncapped totals.
CAPPED_31 = ("0x1.808844838a5c0p-5", "0x1.5e3ca3d2b75d8p-4",
             "0x1.f21b4df9c19e8p-1")
CAPPED_353 = ("0x1.cb0ab34044c32p-6", "0x1.b6ecc49ee785fp-2",
              "0x1.331ad00ec0cccp-1")
CAPPED_2 = ("0x0.0p+0", "0x1.3339afe3f42a1p-2", "0x1.fffffffffffeep-1")
CAPPED_3 = ("0x0.0p+0", "0x1.01f82ccf9c076p-3", "0x1.fffcce11ac84fp-1")

# The totals of the uncapped curve.
UNCAPPED_31 = ("0x1.786a15f4f8dc1p-5", "0x1.65828db74df4fp-4",
               "0x1.f21b4df9c19e8p-1")
UNCAPPED_353 = ("0x1.ca3e509fd7936p-6", "0x1.b6fc7108d98fap-2",
                "0x1.331ad00ec0cccp-1")
UNCAPPED_3 = ("0x0.0p+0", "0x1.79d5bce0f5397p-3", "0x1.fffcce11ac84fp-1")

# The totals of the geometric grid, whose slots came from a log guess.
GEOMETRIC_31 = ("0x1.7866e4b1fb60ep-5", "0x1.6585086a513abp-4",
                "0x1.f21b4df9c19e8p-1")
GEOMETRIC_353 = ("0x1.ca390100aae3cp-6", "0x1.b6fcffc552ff7p-2",
                 "0x1.331ad00ec0cccp-1")

# The totals of the tables that divided each density factor by its value.
DIVIDED_31 = ("0x1.7866e4b1fb60ep-5", "0x1.6585086a513b9p-4",
              "0x1.f21b4df9c19e6p-1")
DIVIDED_353 = ("0x1.ca390100aae3ap-6", "0x1.b6fcffc552ffap-2",
               "0x1.331ad00ec0ccap-1")

# The totals of the per-chunk rounding and directed merge.
CHUNKED_31 = ("0x1.7866e4b1fb607p-5", "0x1.6585086a5144fp-4",
              "0x1.f21b4df9c19d5p-1")
CHUNKED_353 = ("0x1.ca390100aae33p-6", "0x1.b6fcffc55300ep-2",
               "0x1.331ad00ec0cc2p-1")


def total_bits(report) -> tuple:
    return tuple(getattr(report, name).value.hex() for name in TOTALS)


def assert_within(bits, outer) -> None:
    """lower and covered_lo no lower, upper no higher than the outer
    totals."""
    (lo, up, c_lo), (o_lo, o_up, o_c_lo) = (
        map(float.fromhex, t) for t in (bits, outer))
    assert lo >= o_lo and c_lo >= o_c_lo
    assert up <= o_up


def table_digest(table) -> str:
    """SHA-256 of values[1..r_max] then roots[1..r_max], packed as
    little-endian doubles."""
    h = hashlib.sha256()
    for col in (table.values, table.roots):
        h.update(struct.pack(f"<{table.r_max}d", *col[1:]))
    return h.hexdigest()


def curve_digest(ru) -> str:
    """SHA-256 of ru then rl = ulp_dn(1 - ru), the lower curve as the cells
    form it, over the engine's grid, packed as little-endian doubles."""
    h = hashlib.sha256()
    for curve in (ru, ulp_dn(1.0 - ru)):
        h.update(curve.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
def test_totals_y31(threads):
    report = run_bounds(31, 10**6, 200, threads=threads)
    assert report.pair_count == 135331
    assert total_bits(report) == GOLDEN_31
    assert_within(GOLDEN_31, CAPPED_31)
    assert_within(CAPPED_31, UNCAPPED_31)
    assert_within(UNCAPPED_31, GEOMETRIC_31)
    assert_within(GEOMETRIC_31, DIVIDED_31)
    assert_within(DIVIDED_31, CHUNKED_31)


def test_totals_y353():
    report = run_bounds(353, 10**5, 500, threads=1)
    assert report.pair_count == 148128
    assert total_bits(report) == GOLDEN_353
    assert_within(GOLDEN_353, CAPPED_353)
    assert_within(CAPPED_353, UNCAPPED_353)
    assert_within(UNCAPPED_353, GEOMETRIC_353)
    assert_within(GEOMETRIC_353, DIVIDED_353)
    assert_within(DIVIDED_353, CHUNKED_353)


@pytest.mark.parametrize("y,z,r_max,pairs,golden,outer", [
    (2, 10**15, 200, 49, GOLDEN_2, (CAPPED_2,)),
    (3, 10**6, 200, 239, GOLDEN_3, (CAPPED_3, UNCAPPED_3)),
], ids=["2-1e15", "3-1e6"])
def test_totals_few_odd_primes(y, z, r_max, pairs, golden, outer):
    report = run_bounds(y, z, r_max, threads=1)
    assert report.pair_count == pairs
    assert total_bits(report) == golden
    for inner, bound in zip((golden, *outer), outer):
        assert_within(inner, bound)


@pytest.mark.parametrize("y,z,r_max,capped", [
    (31, 10**6, 200, CAPPED_31),
    (353, 10**5, 500, CAPPED_353),
    (2, 10**15, 200, CAPPED_2),
    (3, 10**6, 200, CAPPED_3),
], ids=["31-1e6", "353-1e5", "2-1e15", "3-1e6"])
def test_a_table_at_y_folds_nothing(y, z, r_max, capped):
    report = run_bounds(y, z, r_max, threads=1, table=build_moment_table(y, r_max))
    assert total_bits(report) == capped


def test_table_y2_saturating():
    # (1 + 1/p)^r overflows and (1 - 1/p)^(r-1) underflows for r near 3000
    table = build_moment_table(2, 3000)
    assert table.values[3000] == float("inf")
    assert table_digest(table) == "b42d9634023a461fc9c788b7c4228a06e1232195b7fc7c0a0ea6568ad02c1b8d"


def test_table_y353_product_overflow():
    # neither factor saturates here: the product over the mid primes
    # overflows first, at r = 8159
    table = build_moment_table(353, 8200)
    assert math.isfinite(table.values[8158]) and table.values[8159] == math.inf
    assert table_digest(table) == "96b323a0a3d25e786fde3ed9d7788c6d6eb3fc86c674f292583c9f5ab8797d67"


def test_table_y157():
    table = build_moment_table(157, 2000)
    assert table_digest(table) == "e020b697837621510e850ac1e4ce3f7d9405565e20a3e808852143a314329dcb"


@pytest.mark.parametrize("y,r_max,digest,uncapped,folded", [
    (31, 200, "053c86a34b3334f29819fc120e2692eca623307ef00cd445ebea0a411b3dc31c",
     "82964e01e853e41d110f691bcb1c1be64a85c46fea4066cd91edcc7bcba5ec08",
     "7d3698a6ac313dd4fb6039a3cebcd05fecd00f3b2690c915e08190cb1ff00465"),
    (353, 500, "cb079a3bef4475d6b2a1b02113582f2334c4710107b968662ce192e892ea5d4d",
     "b4e8a11c61d02ae1920f634e4e751ba3af69a19093cc2aa170b52a20bdec152f",
     "cf27a7a2549c43fb1e5edcad289e5124ddd193b6e79f33bf38cdbde8c688b04f"),
], ids=["31-200", "353-500"])
def test_curves(y, r_max, digest, uncapped, folded):
    # digest and uncapped are over the grid points above 1, where the
    # curve that folds nothing is the moment curve; it is 1 on the rest
    table = build_moment_table(y, r_max)
    ru = _engine_consts(table, y).ru_at[1:]
    assert np.all(ru[:_ONE_SLOT + 1] == 1.0)
    assert curve_digest(ru[_ONE_SLOT + 1:]) == digest
    assert curve_digest(bound_curves(table, _grid(_ONE_SLOT + 1))) == uncapped
    # the curve that folds the primes in (y, 1009], over the whole grid
    ru = _engine_consts(build_moment_table(1009, r_max), y).ru_at[1:]
    assert curve_digest(ru) == folded
