import random
from fractions import Fraction

import pytest

from essedge import linprog
from essedge.angles import build_angle_system
from essedge.linprog import solve_lp, LPError

from test_random_properties import _pillow_outputs, random_closed_triangulation


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


# ---- the fraction-free solver against a plain Fraction tableau ----

def reference_lp(A, b, c):
    """The textbook two-phase tableau over Fractions, with Bland's rule and
    the same drive-out of artificials: ((status, x, value), pivots), or
    (LPError, pivots) on an unbounded objective."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    c = [Fraction(x) for x in c] + [Fraction(0)] * (n - len(c))
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row[:n] + [Fraction(int(j == i)) for j in range(m)]
                    + row[-1:])
    basis = [n + i for i in range(m)]
    pivots = 0

    def pivot(table, r, k):
        nonlocal pivots
        pivots += 1
        p = table[r][k]
        table[r] = prow = [x / p for x in table[r]]
        for i, row in enumerate(table):
            if i != r and row[k]:
                f = row[k]
                table[i] = [a - f * q if q else a for a, q in zip(row, prow)]
        basis[r] = k

    def simplex(table, ncols):
        while True:
            cost = table[-1]
            k = next((j for j in range(ncols) if cost[j] < 0), None)
            if k is None:
                return
            ratios = [(row[-1] / row[k], basis[i], i)
                      for i, row in enumerate(table[:-1]) if row[k] > 0]
            if not ratios:
                raise LPError("objective unbounded")
            pivot(table, min(ratios)[2], k)

    cost = [-sum(row[j] for row in rows) for j in range(n)]
    rows.append(cost + [Fraction(0)] * m + [-sum(row[-1] for row in rows)])
    try:
        simplex(rows, n + m)
    except LPError:
        return LPError, pivots
    if rows.pop()[-1] != 0:
        return ("infeasible", None, None), pivots
    keep = []
    for i in range(m):
        if basis[i] >= n:
            k = next((j for j in range(n) if rows[i][j]), None)
            if k is None:
                continue
            pivot(rows, i, k)
        keep.append(i)
    rows = [rows[i][:n] + rows[i][-1:] for i in keep]
    basis[:] = [basis[i] for i in keep]
    cost = c + [Fraction(0)]
    for row, bi in zip(rows, basis):
        cost = [a - c[bi] * q for a, q in zip(cost, row)]
    rows.append(cost)
    try:
        simplex(rows, n)
    except LPError:
        return LPError, pivots
    x = [Fraction(0)] * n
    for row, bi in zip(rows, basis):
        x[bi] = row[-1]
    return ("optimal", x, sum(ci * xi for ci, xi in zip(c, x))), pivots


@pytest.fixture
def pivots(monkeypatch):
    """Counts the solver's pivots, and its negative ones, through
    `linprog._pivot`, which the simplex calls by its global name."""
    tally = {"pivots": 0, "negative": 0}
    pivot = linprog._pivot

    def counted(rows, basis, d, row, col):
        tally["pivots"] += 1
        tally["negative"] += rows[row][col] < 0
        return pivot(rows, basis, d, row, col)

    monkeypatch.setattr(linprog, "_pivot", counted)
    return tally


def _agrees_with_reference(A, b, c, tally):
    """Solves once each way; returns the outcome kind."""
    expected, expected_pivots = reference_lp(A, b, c)
    tally["pivots"] = 0
    if expected is LPError:
        with pytest.raises(LPError):
            solve_lp(A, b, c)
        outcome = "unbounded"
    else:
        status, x, value = solve_lp(A, b, c)
        assert (status, x, value) == expected
        if x is not None:
            assert all(type(v) is Fraction for v in x + [value])
        outcome = status
    assert tally["pivots"] == expected_pivots
    return outcome


def test_random_lps_match_the_fraction_reference(pivots):
    """600 seeded LPs, integer and rational, some with a redundant row,
    some infeasible and some unbounded: the same answer, or the same
    LPError, after the same pivots.  Some drive-out pivots are negative,
    so the sign flip that keeps d positive runs."""
    rng = random.Random(1968)
    outcomes = {}
    for trial in range(600):
        rational = trial % 2

        def q(lo, hi):
            return (Fraction(rng.randint(lo, hi), rng.randint(1, 6))
                    if rational else rng.randint(lo, hi))

        m, n = rng.randint(0, 5), rng.randint(1, 7)
        A = [[q(-3, 3) for _ in range(n)] for _ in range(m)]
        if m >= 2 and trial % 3 == 0:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
        if trial % 5 < 3:
            x0 = [q(0, 4) for _ in range(n)]
            b = [sum(r * v for r, v in zip(row, x0)) for row in A]
        else:
            b = [q(-4, 4) for _ in range(m)]
        c = [q(-3, 3) for _ in range(n)] if trial % 4 else [0] * n
        outcome = _agrees_with_reference(A, b, c, pivots)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert min(outcomes.get(k, 0)
               for k in ("optimal", "infeasible", "unbounded")) >= 50
    assert pivots["negative"] > 0


def test_angle_lps_match_the_fraction_reference(m136, fig8, q8, pivots):
    """The t* and feasibility LPs of the fixtures, the 123 pillow outputs
    of m136 and the seeded closed corpus."""
    rng = random.Random(20260808)
    corpus = [random_closed_triangulation(rng) for _ in range(100)]
    pillows = list(_pillow_outputs(m136))
    assert len(pillows) == 123
    for tri in [m136, fig8, q8] + pillows + corpus:
        system = build_angle_system(tri)
        rowsum = [sum(row) for row in system.matrix]
        t_star = [row + [k, -k] for row, k in zip(system.matrix, rowsum)]
        _agrees_with_reference(t_star, system.rhs,
                               [0] * system.columns + [-1, 1], pivots)
        _agrees_with_reference(system.matrix, system.rhs,
                               [0] * system.columns, pivots)
