import random
from fractions import Fraction

import pytest

from essedge import angles, build_skeleton, linprog
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
    """The textbook two-phase tableau over Fractions, with Bland's rule,
    the solver's crash basis (each row with a unit column, entry 1 after a
    negative right-hand side flips the row, starts with its first such
    column basic; the other rows with artificials n + i, which are not
    stored, so none re-enters) and the same drive-out of artificials:
    ((status, x, value), pivots), or (LPError, pivots) on an unbounded
    objective."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    c = [Fraction(x) for x in c] + [Fraction(0)] * (n - len(c))
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        rows.append([-x for x in row] if row[-1] < 0 else row)
    basis = [n + i for i in range(m)]
    for j in range(n):
        nonzero = [i for i in range(m) if rows[i][j]]
        if (len(nonzero) == 1 and rows[nonzero[0]][j] == 1
                and basis[nonzero[0]] >= n):
            basis[nonzero[0]] = j
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

    artificial = [row for row, bi in zip(rows, basis) if bi >= n]
    rows.append([-sum(row[j] for row in artificial) for j in range(n + 1)])
    try:
        simplex(rows, n)
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
    rows = [rows[i] for i in keep]
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


def test_planted_unit_columns_match_the_fraction_reference(pivots):
    """300 seeded LPs, integer and rational, with unit columns planted in
    some rows, in every row, or in a row whose negative right-hand side
    flips the planted 1 to -1 (so that row gets an artificial) beside a
    planted -1 that the flip makes a unit column: the same answer after the
    same pivots.  With every row crashed, a zero objective takes none."""
    rng = random.Random(1992)
    for trial in range(300):
        rational, kind = trial % 2, trial % 3

        def q(lo, hi):
            return (Fraction(rng.randint(lo, hi), rng.randint(1, 6))
                    if rational else rng.randint(lo, hi))

        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = [[q(-3, 3) for _ in range(n)] for _ in range(m)]
        x0 = [q(0, 4) for _ in range(n)]
        b = [sum(r * v for r, v in zip(row, x0)) + q(0, 3) for row in A]
        if kind == 0:
            planted = {i: 1 for i in rng.sample(range(m), rng.randint(1, m))}
        elif kind == 1:
            b = [abs(x) for x in b]
            planted = {i: 1 for i in range(m)}
        else:
            r = rng.randrange(m)
            b[r] = -abs(b[r]) - 1
            planted = {r: 1}
            if m > 1:
                s = rng.choice([i for i in range(m) if i != r])
                b[s] = -abs(b[s]) - 1
                planted[s] = -1
        for i, entry in planted.items():
            at = rng.randint(0, len(A[0]))
            for k, row in enumerate(A):
                row.insert(at, entry if k == i else 0)
        c = [q(-3, 3) for _ in A[0]] if trial % 4 else [0] * len(A[0])
        _agrees_with_reference(A, b, c, pivots)
        if kind == 1 and not any(c):
            assert pivots["pivots"] == 0


def _angle_lp_inputs(tri, monkeypatch):
    """The (A, b, c) that `max_min_angle` hands the solver for tri."""
    seen = []

    def recorded(A, b, c):
        seen.append((A, b, c))
        return solve_lp(A, b, c)

    with monkeypatch.context() as patch:
        patch.setattr(angles, "solve_lp", recorded)
        angles.max_min_angle(build_skeleton(tri))
    return seen[0]


def _angle_inputs(m136, fig8, q8):
    rng = random.Random(20260808)
    corpus = [random_closed_triangulation(rng) for _ in range(100)]
    pillows = list(_pillow_outputs(m136))
    assert len(pillows) == 123
    return [m136, fig8, q8] + pillows + corpus


def test_angle_lps_match_the_fraction_reference(m136, fig8, q8, pivots,
                                                monkeypatch):
    """The t* and feasibility LPs of the fixtures, the 123 pillow outputs
    of m136 and the seeded closed corpus, as written and as `max_min_angle`
    hands the t* LP to the solver, with its slot-2 columns cleared from
    the edge rows: there every tetrahedron row is crashed."""
    crashed = 0
    for tri in _angle_inputs(m136, fig8, q8):
        system = build_angle_system(tri)
        rowsum = [sum(row) for row in system.matrix]
        t_star = [row + [k, -k] for row, k in zip(system.matrix, rowsum)]
        _agrees_with_reference(t_star, system.rhs,
                               [0] * system.columns + [-1, 1], pivots)
        _agrees_with_reference(system.matrix, system.rhs,
                               [0] * system.columns, pivots)
        A, b, c = _angle_lp_inputs(tri, monkeypatch)
        assert len(A) == len(system.matrix)
        for t in range(tri.tet_count):
            assert [row[3 * t + 2] for row in A] == [
                int(i == t) for i in range(len(A))]
            crashed += 1
        _agrees_with_reference(A, b, c, pivots)
    assert crashed > 1000


def test_angle_lp_optimum_is_the_untransformed_one(m136, fig8, q8):
    """Over the fixtures, the 123 pillow outputs and the seeded closed
    corpus, `max_min_angle`'s t* is the optimum of the plain t* LP on the
    angle equations as written, and its witness solves those equations
    with least entry t*."""
    outcomes = {"feasible": 0, "infeasible": 0}
    for tri in _angle_inputs(m136, fig8, q8):
        skeleton = build_skeleton(tri)
        system = build_angle_system(skeleton)
        rowsum = [sum(row) for row in system.matrix]
        (status, _, value), _ = reference_lp(
            [row + [k, -k] for row, k in zip(system.matrix, rowsum)],
            system.rhs, [0] * system.columns + [-1, 1])
        result = angles.max_min_angle(skeleton)
        outcomes["infeasible" if result is None else "feasible"] += 1
        if status == "infeasible":
            assert result is None
            continue
        t, witness = result
        assert t == -value
        assert system.satisfied_by(witness)
        assert min(witness.entries) == t
    assert outcomes["feasible"] > 126 and outcomes["infeasible"] > 0
