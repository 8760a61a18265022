from fractions import Fraction

import pytest

from reflbench import cyclo, linalg

F = Fraction


def test_rref_rank_invert_over_fractions():
    rows = [[F(2), F(4), F(-2)], [F(1), F(3), F(1, 2)], [F(3), F(7), F(-3, 2)]]
    # row 3 = row 1 + row 2
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, -4], [0, 1, F(3, 2)]]
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert len(reduced) == 2  # the rank
    m = [[F(2), F(1), F(0)], [F(1, 3), F(0), F(1)], [F(0), F(5), F(-1)]]
    inv = linalg.invert(m)
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert [[sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == identity
    assert all(type(x) is Fraction for row in inv for x in row)
    assert linalg.det(m) == F(-29, 3)
    with pytest.raises(ZeroDivisionError):
        linalg.invert(rows)
    assert linalg.det(rows) == 0


def test_rref_over_cyclotomic_numbers_keeps_the_field():
    z = cyclo.root_of_unity(3)
    one = cyclo.ONE
    rows = [[z, one], [z * z, z]]  # row 2 = z * row 1
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0]
    assert reduced == [[one, z * z]]
    m = [[z, one], [one, z]]
    d = z * z - 1
    assert linalg.invert(m) == [[z / d, -one / d], [-one / d, z / d]]
    assert linalg.det(m) == d


def test_kernel_is_read_off_the_pivots():
    rows = [[F(2), F(4), F(-2)], [F(1), F(3), F(1, 2)], [F(3), F(7), F(-3, 2)]]
    # rref = [[1, 0, -4], [0, 1, 3/2]]: one free column, 2
    assert linalg.kernel(rows) == [[(0, F(4)), (1, F(-3, 2)), (2, F(1))]]
    assert all(type(x) is Fraction for vec in linalg.kernel(rows) for _, x in vec)
    # an all-zero system has the whole space as its kernel
    zero = cyclo.ZERO
    assert linalg.kernel([[zero, zero]]) == [[(0, cyclo.ONE)], [(1, cyclo.ONE)]]
    z = cyclo.root_of_unity(3)
    (vec,) = linalg.kernel([[z, cyclo.ONE], [z * z, z]])
    assert vec == [(0, -z * z), (1, cyclo.ONE)]
    assert linalg.kernel([[F(1), F(0)], [F(0), F(5)]]) == []
