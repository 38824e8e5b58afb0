import random
from fractions import Fraction

import pytest

from essedge.linprog import solve_lp, LPError


def test_basic_feasibility():
    # x + y = 1, x, y >= 0; a zero objective asks for feasibility alone
    status, x, _ = solve_lp([[1, 1]], [1], [0, 0])
    assert status == "optimal" and sum(x) == 1 and all(v >= 0 for v in x)


def test_infeasible():
    assert solve_lp([[1, 1]], [-1], [0, 0])[0] == "infeasible"
    assert solve_lp([[1, 0], [1, 0]], [1, 2], [0, 0])[0] == "infeasible"


def test_redundant_rows():
    status, x, _ = solve_lp([[1, 1], [2, 2]], [1, 2], [0, 0])
    assert status == "optimal" and x is not None


def test_minimisation():
    # min x1 subject to x1 + x2 = 1
    status, x, value = solve_lp([[1, 1]], [1], [1, 0])
    assert status == "optimal" and value == 0 and x[0] == 0


def test_unbounded():
    with pytest.raises(LPError):
        solve_lp([[1, -1]], [0], [-1, 0])


def test_exactness():
    status, x, value = solve_lp([[3, 7]], [Fraction(1)], [1, 0])
    assert status == "optimal"
    assert value == 0 and x == [0, Fraction(1, 7)]


def test_random_feasibility_agrees_with_construction():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        x0 = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
             for _ in range(m)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
        status, x, _ = solve_lp(a, b, [0] * n)
        assert status == "optimal"
        assert all(v >= 0 for v in x)
        for row, rhs in zip(a, b):
            assert sum(r * v for r, v in zip(row, x)) == rhs


def test_random_optima_are_extreme():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = [[Fraction(1)] * n]
        b = [Fraction(rng.randint(1, 4))]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        status, x, value = solve_lp(a, b, c)
        assert status == "optimal"
        # optimum of a linear functional over the simplex b*Delta is at a
        # vertex: b * min(c)
        assert value == b[0] * min(c)


def test_fractional_data_stays_exact():
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        x0 = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n)]
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6))
              for _ in range(n)] for _ in range(m)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
        c = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
        status, x, value = solve_lp(a, b, c)
        assert status == "optimal"
        assert all(v >= 0 for v in x)
        for row, rhs in zip(a, b):
            assert sum(r * v for r, v in zip(row, x)) == rhs
        assert value == sum(ci * xi for ci, xi in zip(c, x))
        assert value <= sum(ci * xi for ci, xi in zip(c, x0))
