"""The smooth-number tables of the cell kernel (`engine._smooth_rows`): every
byte equal to the direct build of `oracles.smooth_rows`, on the b side and
the odd side, and a build whose peak memory stays near the size of what it
returns."""
import tracemalloc
from fractions import Fraction

import pytest

from oracles import smooth_rows
from sigbound import engine
from sigbound.arith import primes_upto
from sigbound.dirround import ratio_dn, ratio_up


def odd_primes(y):
    return tuple(primes_upto(y).tolist()[1:])


def odd_side_bases(odd):
    """The density base prod (p-2)/p over `odd`, rounded DOWN, and the heads
    of the odd side's last five columns, as run_bounds starts it: the
    directed mass base M = prod (p-1)/p over `odd`, the directed M rho and
    1/rest rounded DOWN, rho the product of (p-2)/(p-1) and 1/rest that of
    (p-1)/p over the primes of `odd` past the group primes."""
    base = mass = rho = rest = Fraction(1)
    for j, p in enumerate(odd):
        base *= Fraction(p - 2, p)
        mass *= Fraction(p - 1, p)
        if j >= engine._GROUP_PRIMES:
            rho *= Fraction(p - 2, p - 1)
            rest *= Fraction(p - 1, p)
    mr = mass * rho
    return (ratio_dn(base.numerator, base.denominator),
            (ratio_dn(mass.numerator, mass.denominator), ratio_up(mass.numerator, mass.denominator),
             ratio_dn(mr.numerator, mr.denominator), ratio_up(mr.numerator, mr.denominator),
             ratio_dn(rest.numerator, rest.denominator)))


def assert_same_table(got, want):
    (rows, used), (ref, ref_used) = got, want
    assert used == ref_used
    assert rows._fields == ref._fields
    for name, col, ref_col in zip(rows._fields, rows, ref):
        assert col.dtype == ref_col.dtype, name
        assert col.shape == ref_col.shape, name
        assert col.tobytes() == ref_col.tobytes(), name


@pytest.mark.parametrize("y,z,budget,used", [
    (31, 10**8, engine._ROW_BUDGET, 10),  # every odd prime fits
    (157, 10**8, engine._ROW_BUDGET, 15),  # the budget keeps 15 of 36
    (353, 10**5, engine._ROW_BUDGET, 70),  # two mask words
    (3, 10**6, engine._ROW_BUDGET, 1),
    (2, 10**6, engine._ROW_BUDGET, 0),  # no odd prime at all
    (31, 10**8, 5000, 3),  # 11 fits, 121 passes the budget: 11 is dropped
])
def test_tables_match_the_direct_build(y, z, budget, used):
    odd = odd_primes(y)
    b = engine._smooth_rows(odd, z, True, 1.0, (), budget)
    assert_same_table(b, smooth_rows(odd, z, True, 1.0, (), budget))
    assert b[1] == used and b[0].value.size <= budget
    assert all(col.size == 0 for col in b[0][5:])  # the b table carries no mass
    # sorted by class first, as _b_table builds it
    classes = engine._CLASS_PRIMES
    assert_same_table(engine._smooth_rows(odd, z, True, 1.0, (), budget, classes),
                      smooth_rows(odd, z, True, 1.0, (), budget, classes))
    # the odd side over the b table's primes, as _cell_tables builds it
    f0, m0 = odd_side_bases(odd)
    assert_same_table(engine._smooth_rows(odd[:used], z // 2, False, f0, m0),
                      smooth_rows(odd[:used], z // 2, False, f0, m0))


def test_b_table_build_peaks_below_one_and_a_half_times_its_size():
    odd = odd_primes(31)
    tracemalloc.start()
    try:
        rows, _ = engine._smooth_rows(odd, 10**8, True, 1.0, (), engine._ROW_BUDGET,
                                      engine._CLASS_PRIMES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(col.nbytes for col in {id(col): col for col in rows}.values())
    assert peak <= 1.5 * size, (peak, size)
