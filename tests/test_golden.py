"""Pinned bits of the certified totals, the moment tables and the bound
curves.

A run given no table builds one at the sparse orders of
`moments.moment_orders`; its totals are pinned, and so are those of the
same run given an every-order table. The sparse orders drop candidates
of the curve's min, so each end of a run moves out, by at most 1e-12 at
the settings of r_max <= 500 pinned here and 5e-10 at r_max = 2000 (a
table at y moves more: 4.5e-12 at (997, 1e5, 500)): the every-order
bracket lies inside the sparse one, and the sparse one inside every outer
bound. The
table digests pin every-order tables; the digests of sparse tables are
pinned apart, at the order set of today and at the one that began with
32 dense orders.

Both kinds of run fold on the 2^-14 log step. Those of the 2^-13 log step,
the sparse one at the orders from 32 dense ones, stay pinned as outer
bounds (`LOG13_*`; the every-order ones are the pins from before the sparse
orders, bit for bit), and so do their folded curves, as digests of the
curves the fold still builds on that step. The 2^-13 every-order totals
were taken when the group primes went from four to five and
every total became a directed sum in units of 2^-94 (`dirround.fixed_sum`:
the covered mass, the lower terms and the savings floored, the upper
charges ceiled). At four group primes that sum moved no bit of the exact
sums in units of 2^-1074 that it replaced. The upper side charges every
a-side row's cells by group (k, C), k = min(v2(b), 3) and C the first five
odd primes that divide b, each group at one read of the bound curve (the
tail lemma); the lower side by group (k, C, R), R whether b has an odd
prime past them, each at one lower read; a run given no table folds the
primes in (y, 1009] into its bound curve (the fold lemma), and a run given
a table at y folds nothing, and each is pinned, as are the totals with no
group prime. Each quotient by h(a) = 1.0, at a = 1, is exact. Twelve
earlier sets of totals stay pinned as outer bounds, each at least as loose
as the one after it: those of the 2^-13 log step (above); those that read
such a quotient one slot low where it
is a grid point; those of four group primes, taken
when the lower side began to charge the cells of each odd a by group too
(the lower tail lemma in `sigbound.moments`); those of three group primes whose
lower side charged no group, on the fold's 2^-13 log step rounded to
nearest under one certified slack (the rounding of the fold); those of the
2^-12 log step; those of the groups by k alone, for
both kinds of run; those of the folded curve with the tail at 1; those of
the curve capped at 1/2 (the symmetry lemma) that folded nothing, also the
outer bounds of the pins of a table at y, and whose curve digests stay
pinned on the grid points above 1; those of the uncapped curve, taken when the ratio grid became the
doubles 1 + i 2^-16 on [1, 2) and 2 + j 2^-15 on [2, 4], with each cell's
slot read off the bits of its ratio (their curve digests now pin the
uncapped moment curve of `bound_curves`); before them those of the
geometric grid from 1 + 2^-16 to 32; before them those of the tables
that divided each density factor by its directed value at the end; and
before them those of the engine that rounded each chunk total one ULP
outward and merged them with directed adds (the cell totals have since been
integer sums, rounded once). The tables were taken from the engine as
it stood before its numpy kernels switched from np.nextafter and math.fsum
to the int64-view ULP steps and the exact sums of `sigbound.dirround`; the
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

from sigbound import engine, moments
from sigbound.dirround import ulp_dn
from sigbound.engine import _ONE_SLOT, _engine_consts, _grid, run_bounds
from sigbound.moments import bound_curves, build_moment_table

TOTALS = ("lower_total", "upper_total", "covered_lo")

# The totals of a run given no table, at the sparse orders.
GOLDEN_31 = ("0x1.b1de71e04df07p-5", "0x1.cc892dbb67ffbp-5", "0x1.f21b4df9c19e8p-1")
GOLDEN_353 = ("0x1.dc8a4ba5f89b7p-6", "0x1.0665931fcc64bp-3", "0x1.331ad00ec0cccp-1")
GOLDEN_2 = ("0x1.bdcf163b7ca8bp-5", "0x1.c1cc20172535dp-5", "0x1.fffffffffffeep-1")
GOLDEN_3 = ("0x1.bdeb2df63c39fp-5", "0x1.c1dcf82a048eap-5", "0x1.fffcce11ac84fp-1")

# The totals of the same runs given an every-order table at level 1009.
EVERY_31 = ("0x1.b1de71e04e2b0p-5", "0x1.cc892dbb65a9bp-5", "0x1.f21b4df9c19e8p-1")
EVERY_353 = ("0x1.dc8a4ba5f97acp-6", "0x1.0665931fcb941p-3", "0x1.331ad00ec0cccp-1")
# y = 2 has no odd prime: one b class, one mask word of zeros, and no group
# prime, so its groups are those of k alone. y = 3 has one, so the fifth
# group prime moved neither. At y = 2 with
# z = 1e15 every cell but a tail of 2e-15 is summed, so the group charge
# moves the upper end by no more than that. Its lower groups (k, {}, {})
# each hold one cell, (1, 2^k), enumerated, and the charge of each is that
# cell's lower term bit for bit: the lower groups move no bit at y = 2.
EVERY_2 = ("0x1.bdcf163b7ceb1p-5", "0x1.c1cc201722e03p-5", "0x1.fffffffffffeep-1")
EVERY_3 = ("0x1.bdeb2df63c770p-5", "0x1.c1dcf82a0239ap-5", "0x1.fffcce11ac84fp-1")

# The totals with no group prime, the groups by k (and R on the lower side)
# alone, given an every-order table.
NO_GROUP_31 = ("0x1.ad4678a191dbdp-5", "0x1.dc25dbd672cecp-5", "0x1.f21b4df9c19e8p-1")
NO_GROUP_3 = ("0x1.bdeb2df63c770p-5", "0x1.c1dcf98a71fa9p-5", "0x1.fffcce11ac84fp-1")

# The totals of the 2^-13 log step: of a run given no table, at the sparse
# orders from 32 dense ones (LOG13), given an every-order table
# (LOG13_EVERY), and given one with no group prime (LOG13_NO_GROUP).
LOG13_31 = ("0x1.b1b17c50bcf03p-5", "0x1.ccb579de0c577p-5", "0x1.f21b4df9c19e8p-1")
LOG13_353 = ("0x1.dc705a151394cp-6", "0x1.066969d3b48d3p-3", "0x1.331ad00ec0cccp-1")
LOG13_2 = ("0x1.bd600da068c4ap-5", "0x1.c20e747b4705bp-5", "0x1.fffffffffffeep-1")
LOG13_3 = ("0x1.bda12c7af9665p-5", "0x1.c22ba1fb34d42p-5", "0x1.fffcce11ac84fp-1")
LOG13_EVERY_31 = ("0x1.b1b17c50bd2adp-5", "0x1.ccb579de09ad2p-5", "0x1.f21b4df9c19e8p-1")
LOG13_EVERY_353 = ("0x1.dc705a15149c4p-6", "0x1.066969d3b3ac9p-3", "0x1.331ad00ec0cccp-1")
LOG13_EVERY_2 = ("0x1.bd600da069018p-5", "0x1.c20e747b445c0p-5", "0x1.fffffffffffeep-1")
LOG13_EVERY_3 = ("0x1.bda12c7af9a36p-5", "0x1.c22ba1fb322bfp-5", "0x1.fffcce11ac84fp-1")
LOG13_NO_GROUP_31 = ("0x1.ad1a023c7c919p-5", "0x1.dc538b8659d42p-5", "0x1.f21b4df9c19e8p-1")
LOG13_NO_GROUP_3 = ("0x1.bda12c7af9a36p-5", "0x1.c22ba35ccac58p-5", "0x1.fffcce11ac84fp-1")

# The totals of an every-order table at y, the capped curve that folds
# nothing. Its lower side is 0 at y <= 3, where no cell's w reaches a point
# above 1.
AT_Y_31 = ("0x1.868149ce3bb1cp-5", "0x1.fd7382d0d75f6p-5", "0x1.f21b4df9c19e8p-1")
AT_Y_353 = ("0x1.da8547d2e49b1p-6", "0x1.06de38556eb28p-3", "0x1.331ad00ec0cccp-1")
AT_Y_2 = ("0x0.0p+0", "0x1.333617c5c0cdbp-2", "0x1.fffffffffffeep-1")
AT_Y_3 = ("0x0.0p+0", "0x1.01ed9998eb120p-3", "0x1.fffcce11ac84fp-1")

# The totals that read the exact quotients of a = 1, whose h(a) is 1.0,
# one slot low where they are grid points (the h(2^k), k <= 16, of the
# cells (1, 2^k) and of the group ratios at y = 2): those of a run with no
# table, with no group prime and with a table at y. At y = 353 no bit moved.
SLOT_LOW_31 = ("0x1.b1b17c50bd2adp-5", "0x1.ccb579de09ad7p-5", "0x1.f21b4df9c19e8p-1")
SLOT_LOW_2 = ("0x1.bd600da069018p-5", "0x1.c249b59e00c18p-5", "0x1.fffffffffffeep-1")
SLOT_LOW_3 = ("0x1.bda12c7af9a36p-5", "0x1.c22dce2a6aef2p-5", "0x1.fffcce11ac84fp-1")
SLOT_LOW_NO_GROUP_31 = ("0x1.ad1a023c7c919p-5", "0x1.dc538b8659d46p-5",
                        "0x1.f21b4df9c19e8p-1")
SLOT_LOW_NO_GROUP_3 = ("0x1.bda12c7af9a36p-5", "0x1.c22dcf8cb872ap-5", "0x1.fffcce11ac84fp-1")
SLOT_LOW_AT_Y_2 = ("0x0.0p+0", "0x1.3339afe3f4281p-2", "0x1.fffffffffffeep-1")
SLOT_LOW_AT_Y_3 = ("0x0.0p+0", "0x1.01ee2b7e6aefap-3", "0x1.fffcce11ac84fp-1")

# The totals of four group primes, with no table and with a table at y.
FOUR_31 = ("0x1.afe4a7db769a3p-5", "0x1.ce68a7c0cc4d9p-5", "0x1.f21b4df9c19e8p-1")
FOUR_353 = ("0x1.d7f5c1c64449ep-6", "0x1.087e5ff1dc96ap-3", "0x1.331ad00ec0cccp-1")
FOUR_AT_Y_31 = ("0x1.84d29c5c67c81p-5", "0x1.ff3bcb929c0b7p-5", "0x1.f21b4df9c19e8p-1")
FOUR_AT_Y_353 = ("0x1.d60f23b4a7183p-6", "0x1.08f4aac9f4c1dp-3", "0x1.331ad00ec0cccp-1")

# The totals of three group primes whose lower side charged no group, with
# no table, with no group prime and with a table at y.
NO_LOWER_31 = ("0x1.ab0c9d7f1a5a0p-5", "0x1.d0aa8ce88baebp-5", "0x1.f21b4df9c19e8p-1")
NO_LOWER_353 = ("0x1.ccd84b3a333d3p-6", "0x1.0b395dc270dc0p-3", "0x1.331ad00ec0cccp-1")
NO_LOWER_3 = ("0x1.bda0a1f1ee77ap-5", "0x1.c22dce2a6aef2p-5", "0x1.fffcce11ac84fp-1")
NO_LOWER_NO_GROUP_31 = ("0x1.ab0c9d7f1a5a0p-5", "0x1.dc538b8659d46p-5",
                        "0x1.f21b4df9c19e8p-1")
NO_LOWER_NO_GROUP_3 = ("0x1.bda0a1f1ee77ap-5", "0x1.c22dcf8cb872ap-5", "0x1.fffcce11ac84fp-1")
NO_LOWER_AT_Y_31 = ("0x1.808844838a5c0p-5", "0x1.00cd9c7440c2dp-4", "0x1.f21b4df9c19e8p-1")
NO_LOWER_AT_Y_353 = ("0x1.cb0ab34044c32p-6", "0x1.0bb3aab5d7e37p-3", "0x1.331ad00ec0cccp-1")

# The totals of the 2^-12 log step.
LOG12_31 = ("0x1.aab428728353ap-5", "0x1.d10342f9a9561p-5",
            "0x1.f21b4df9c19e8p-1")
LOG12_353 = ("0x1.ccb68480ffb18p-6", "0x1.0b42b547e0d40p-3",
             "0x1.331ad00ec0cccp-1")
LOG12_2 = ("0x1.bc884657c0b53p-5", "0x1.c30c3957672c8p-5", "0x1.fffffffffffeep-1")
LOG12_3 = ("0x1.bd0202f0a2ffcp-5", "0x1.c2e088acb610bp-5", "0x1.fffcce11ac84fp-1")

# The totals of the groups by k alone, with no table and with a table at y,
# on the 2^-12 log step.
KGROUP_31 = ("0x1.aab428728353ap-5", "0x1.dcaedcac8a188p-5",
             "0x1.f21b4df9c19e8p-1")
KGROUP_353 = ("0x1.ccb68480ffb18p-6", "0x1.18d3785eef8f9p-3",
              "0x1.331ad00ec0cccp-1")
KGROUP_3 = ("0x1.bd0202f0a2ffcp-5", "0x1.c2e08a12c790bp-5", "0x1.fffcce11ac84fp-1")
KGROUP_AT_Y_31 = ("0x1.808844838a5c0p-5", "0x1.073475376d7dbp-4", "0x1.f21b4df9c19e8p-1")
KGROUP_AT_Y_353 = ("0x1.cb0ab34044c32p-6", "0x1.19639e6f25b0fp-3", "0x1.331ad00ec0cccp-1")
KGROUP_AT_Y_3 = ("0x0.0p+0", "0x1.01ee2f03c209bp-3", "0x1.fffcce11ac84fp-1")

# The totals of the folded curve with the tail charged at 1.
FOLDED_31 = ("0x1.aab428728353ap-5", "0x1.46c801464c06fp-4",
             "0x1.f21b4df9c19e8p-1")
FOLDED_353 = ("0x1.ccb68480ffb18p-6", "0x1.b6cba0160f628p-2",
              "0x1.331ad00ec0cccp-1")
FOLDED_2 = ("0x1.bc884657c0b53p-5", "0x1.c30c3957673d8p-5", "0x1.fffffffffffeep-1")
FOLDED_3 = ("0x1.bd0202f0a2ffcp-5", "0x1.c30e702a45259p-5", "0x1.fffcce11ac84fp-1")

# The totals of the capped curve that folds nothing, with the tail at 1.
# At y = 2 every cell is
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


def assert_close(bits, other, tol) -> None:
    """Each end of one bracket within tol of the other's."""
    for i in (0, 1):
        assert abs(float.fromhex(bits[i]) - float.fromhex(other[i])) <= tol


def every_order_run(y, z, r_max, level=1009, threads=1):
    return run_bounds(y, z, r_max, threads=threads,
                      table=build_moment_table(level, r_max, every_order=True))


def assert_within(bits, outer) -> None:
    """lower and covered_lo no lower, upper no higher than the outer
    totals."""
    (lo, up, c_lo), (o_lo, o_up, o_c_lo) = (
        map(float.fromhex, t) for t in (bits, outer))
    assert lo >= o_lo and c_lo >= o_c_lo
    assert up <= o_up


def table_digest(table) -> str:
    """SHA-256 of the values then the roots, one per order, packed as
    little-endian doubles."""
    h = hashlib.sha256()
    for col in (table.values, table.roots):
        h.update(struct.pack(f"<{len(col)}d", *col))
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
    assert total_bits(every_order_run(31, 10**6, 200, threads=threads)) == EVERY_31
    assert_close(GOLDEN_31, EVERY_31, 1e-12)
    assert_within(EVERY_31, GOLDEN_31)
    assert_within(GOLDEN_31, LOG13_EVERY_31)
    assert_within(EVERY_31, NO_GROUP_31)
    assert_within(LOG13_EVERY_31, LOG13_31)
    assert_within(LOG13_31, FOUR_31)
    assert_within(LOG13_EVERY_31, LOG13_NO_GROUP_31)
    assert_within(LOG13_EVERY_31, SLOT_LOW_31)
    assert_within(SLOT_LOW_31, FOUR_31)
    assert_within(FOUR_31, NO_LOWER_31)
    assert_within(NO_LOWER_31, LOG12_31)
    assert_within(LOG12_31, KGROUP_31)
    assert_within(KGROUP_31, FOLDED_31)
    assert_within(FOLDED_31, CAPPED_31)
    assert_within(CAPPED_31, UNCAPPED_31)
    assert_within(UNCAPPED_31, GEOMETRIC_31)
    assert_within(GEOMETRIC_31, DIVIDED_31)
    assert_within(DIVIDED_31, CHUNKED_31)


def test_totals_y353():
    report = run_bounds(353, 10**5, 500, threads=1)
    assert report.pair_count == 148128
    assert total_bits(report) == GOLDEN_353
    assert total_bits(every_order_run(353, 10**5, 500)) == EVERY_353
    assert_close(GOLDEN_353, EVERY_353, 1e-12)
    assert_within(EVERY_353, GOLDEN_353)
    assert_within(GOLDEN_353, LOG13_EVERY_353)
    assert_within(LOG13_EVERY_353, LOG13_353)
    assert_within(LOG13_353, FOUR_353)
    assert_within(FOUR_353, NO_LOWER_353)
    assert_within(NO_LOWER_353, LOG12_353)
    assert_within(LOG12_353, KGROUP_353)
    assert_within(KGROUP_353, FOLDED_353)
    assert_within(FOLDED_353, CAPPED_353)
    assert_within(CAPPED_353, UNCAPPED_353)
    assert_within(UNCAPPED_353, GEOMETRIC_353)
    assert_within(GEOMETRIC_353, DIVIDED_353)
    assert_within(DIVIDED_353, CHUNKED_353)


@pytest.mark.parametrize("y,z,r_max,pairs,golden,every,log13,outer", [
    (2, 10**15, 200, 49, GOLDEN_2, EVERY_2, (LOG13_2, LOG13_EVERY_2),
     (SLOT_LOW_2, LOG12_2, FOLDED_2, CAPPED_2)),
    (3, 10**6, 200, 239, GOLDEN_3, EVERY_3, (LOG13_3, LOG13_EVERY_3),
     (SLOT_LOW_3, NO_LOWER_3, LOG12_3, KGROUP_3, FOLDED_3, CAPPED_3, UNCAPPED_3)),
], ids=["2-1e15", "3-1e6"])
def test_totals_few_odd_primes(y, z, r_max, pairs, golden, every, log13, outer):
    report = run_bounds(y, z, r_max, threads=1)
    assert report.pair_count == pairs
    assert total_bits(report) == golden
    assert total_bits(every_order_run(y, z, r_max)) == every
    assert_close(golden, every, 1e-12)
    assert_within(every, golden)
    log13, log13_every = log13
    assert_within(golden, log13_every)
    assert_within(log13_every, log13)
    assert_within(log13, outer[1])
    for inner, bound in zip((log13_every, *outer), outer):
        assert_within(inner, bound)


@pytest.mark.parametrize("y,z,r_max,level,tol", [
    (997, 10**5, 200, 997, 1e-12),  # past _FOLD_MAX_Y: a table at y
    (13, 10**7, 2000, 1009, 5e-10),
    (2, 10**15, 2000, 1009, 5e-10),
], ids=["997-1e5-200", "13-1e7-2000", "2-1e15-2000"])
def test_sparse_orders_move_each_end_by_little(y, z, r_max, level, tol):
    sparse, every = run_bounds(y, z, r_max, threads=1), every_order_run(y, z, r_max, level)
    assert_close(total_bits(sparse), total_bits(every), tol)
    assert_within(total_bits(every), total_bits(sparse))


@pytest.mark.parametrize("y,z,r_max,at_y,outer", [
    (31, 10**6, 200, AT_Y_31, (FOUR_AT_Y_31, NO_LOWER_AT_Y_31, KGROUP_AT_Y_31, CAPPED_31)),
    (353, 10**5, 500, AT_Y_353,
     (FOUR_AT_Y_353, NO_LOWER_AT_Y_353, KGROUP_AT_Y_353, CAPPED_353)),
    (2, 10**15, 200, AT_Y_2, (SLOT_LOW_AT_Y_2, CAPPED_2)),
    (3, 10**6, 200, AT_Y_3, (SLOT_LOW_AT_Y_3, KGROUP_AT_Y_3, CAPPED_3)),
], ids=["31-1e6", "353-1e5", "2-1e15", "3-1e6"])
def test_a_table_at_y_folds_nothing(y, z, r_max, at_y, outer):
    report = every_order_run(y, z, r_max, level=y)
    assert total_bits(report) == at_y
    for inner, bound in zip((at_y, *outer), outer):
        assert_within(inner, bound)


@pytest.mark.parametrize("y,z,r_max,no_group,log13,slot_low,no_lower,kgroup", [
    (31, 10**6, 200, NO_GROUP_31, LOG13_NO_GROUP_31, SLOT_LOW_NO_GROUP_31, NO_LOWER_NO_GROUP_31,
     KGROUP_31),
    (3, 10**6, 200, NO_GROUP_3, LOG13_NO_GROUP_3, SLOT_LOW_NO_GROUP_3, NO_LOWER_NO_GROUP_3,
     KGROUP_3),
], ids=["31-1e6", "3-1e6"])
def test_no_group_primes_leaves_the_groups_by_k_alone(y, z, r_max, no_group, log13, slot_low,
                                                       no_lower, kgroup, monkeypatch):
    # with no group prime every upper group is (k, {}), weighed 2^-k
    # exactly, and every lower one (k, {}, R)
    monkeypatch.setattr(engine, "_GROUP_PRIMES", 0)
    assert total_bits(every_order_run(y, z, r_max)) == no_group
    assert_within(no_group, log13)
    assert_within(log13, slot_low)
    assert_within(slot_low, no_lower)
    assert_within(no_lower, kgroup)


def test_table_y2_saturating():
    # (1 + 1/p)^r overflows and (1 - 1/p)^(r-1) underflows for r near 3000
    table = build_moment_table(2, 3000, every_order=True)
    assert table.values[-1] == float("inf")
    assert table_digest(table) == "b42d9634023a461fc9c788b7c4228a06e1232195b7fc7c0a0ea6568ad02c1b8d"


def test_table_y353_product_overflow():
    # neither factor saturates here: the product over the mid primes
    # overflows first, at r = 8159
    table = build_moment_table(353, 8200, every_order=True)
    assert math.isfinite(table.values[8157]) and table.values[8158] == math.inf
    assert table_digest(table) == "96b323a0a3d25e786fde3ed9d7788c6d6eb3fc86c674f292583c9f5ab8797d67"


def test_table_y157():
    table = build_moment_table(157, 2000, every_order=True)
    assert table_digest(table) == "e020b697837621510e850ac1e4ce3f7d9405565e20a3e808852143a314329dcb"


@pytest.mark.parametrize("y,r_max,digest,dense32", [
    # at y = 2 the factor of p = 3 is mostly its r / den term at large r,
    # so these bits follow each step of (1 - 1/p)^(r-1)
    (2, 500, "72d7c05c6af1319ddcf592127dbc63d8e530b2bc80dfcb2dc4e5a1d97f4a4bc5",
     "89886b3b56af5c727bdb18c92cb0978ebb7c8f18cc1d719a630f43e0984ad508"),
    (353, 500, "70a01ad247c2ce5c0b86d0929b9c37784447d9435389980e9582d6fca3e128ba",
     "329f000bd080113d7ddea28d2b9d5986ccac49b2d3b7128f67c3a666792c479a"),
    (1009, 4000, "970fd3f6fda746027e4394c4da6a869f8ff33055ea50276d504586e018794814",
     "bae8c14f02bb84c5384b2b6f6b336a9561df25d0b16633b7d2d131fa1f5c1b3a"),
], ids=["2-500", "353-500", "1009-4000"])
def test_sparse_tables(y, r_max, digest, dense32, monkeypatch):
    table = build_moment_table(y, r_max)
    assert table.orders == moments.moment_orders(r_max)
    assert table_digest(table) == digest
    # and the tables of the order set that began with 32 dense orders
    monkeypatch.setattr(moments, "_DENSE_ORDERS", 32)
    assert table_digest(build_moment_table(y, r_max)) == dense32


@pytest.mark.parametrize("y,r_max,digest,uncapped,folded,sparse,log13", [
    (31, 200, "053c86a34b3334f29819fc120e2692eca623307ef00cd445ebea0a411b3dc31c",
     "82964e01e853e41d110f691bcb1c1be64a85c46fea4066cd91edcc7bcba5ec08",
     "b33c4daf9b085ef43157ac11846503b1edd55fba2b572440cf3eefce4ae0cca9",
     "a08ab8beef14a9d3d90106bfb87686f97ed7043e7689322df69171afdfbab7c6",
     ("8908454383a1b3c2bd460e71e4cf570fb6d370a099eaca3c0258d43b34cd4460",
      "cd73f7032405ec3a02bf577f778160e1184a2a67e3358d3bd3380daf113df10f")),
    (353, 500, "cb079a3bef4475d6b2a1b02113582f2334c4710107b968662ce192e892ea5d4d",
     "b4e8a11c61d02ae1920f634e4e751ba3af69a19093cc2aa170b52a20bdec152f",
     "29b07e3fe9969aae8552d0b1195f5f8120a83eda2ee27b5c620a4522e56cbeb8",
     "98f9ccfae7a3de0f59c5dd185f9c1fb4b6da935ddeae0a5778c5f79e5c6b504c",
     ("7a5dcbbfb34b21dc0741ef0d7a2ae273a69d86551b0f37d07828949a4689c0d5",
      "89d792a46c43d2e3e91a8eac8308b43ff110c6dc339e20bafbc3e4fc161f8edb")),
], ids=["31-200", "353-500"])
def test_curves(y, r_max, digest, uncapped, folded, sparse, log13, monkeypatch):
    # digest and uncapped are over the grid points above 1, where the
    # curve that folds nothing is the moment curve; it is 1 on the rest.
    # All three are of every-order tables
    table = build_moment_table(y, r_max, every_order=True)
    ru = _engine_consts(table, y).ru_at[1:]
    assert np.all(ru[:_ONE_SLOT + 1] == 1.0)
    assert curve_digest(ru[_ONE_SLOT + 1:]) == digest
    assert curve_digest(bound_curves(table, _grid(_ONE_SLOT + 1))) == uncapped
    # the curve that folds the primes in (y, 1009], over the whole grid
    ru = _engine_consts(build_moment_table(1009, r_max, every_order=True), y).ru_at[1:]
    assert curve_digest(ru) == folded
    # and the folded curve of the sparse table a run builds
    assert curve_digest(_engine_consts(build_moment_table(1009, r_max), y).ru_at[1:]) == sparse
    # both on the fold's 2^-13 log step, the sparse table's from 32 dense
    # orders
    monkeypatch.setattr(moments, "_LOG_BITS", 13)
    ru = _engine_consts(build_moment_table(1009, r_max, every_order=True), y).ru_at[1:]
    assert curve_digest(ru) == log13[0]
    monkeypatch.setattr(moments, "_DENSE_ORDERS", 32)
    assert curve_digest(_engine_consts(build_moment_table(1009, r_max), y).ru_at[1:]) == log13[1]
