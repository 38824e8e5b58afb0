"""
Exact linear programming over the rationals: two-phase dense simplex with
Bland's anti-cycling rule.  Problems are tiny (tens of variables); each
tableau row is held as Python ints over one positive common denominator,
reduced by the gcd after every pivot, which keeps the arithmetic exact
without building a Fraction per entry.
"""
from fractions import Fraction
from math import gcd, lcm


class LPError(Exception):
    pass


def _normalise(nums, den):
    """The row nums / den with a positive denominator and no common factor."""
    if den < 0:
        nums = [-x for x in nums]
        den = -den
    g = gcd(den, *nums)
    if g > 1:
        nums = [x // g for x in nums]
        den //= g
    return nums, den


def _int_row(values):
    """A row of rationals as (numerators, common denominator)."""
    values = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in values)) if values else 1
    return _normalise([x.numerator * (den // x.denominator) for x in values],
                      den)


def _eliminate(target, prow, col):
    """target - target[col] * prow, where prow has a 1 in column col."""
    tn, td = target
    pn, pd = prow
    f = tn[col]
    return _normalise([a * pd - f * b for a, b in zip(tn, pn)], td * pd)


def _pivot(tableau, basis, row, col):
    nums, _ = tableau[row]
    prow = tableau[row] = _normalise(nums, nums[col])
    for r, target in enumerate(tableau):
        if r != row and target[0][col]:
            tableau[r] = _eliminate(target, prow, col)
    basis[row] = col


def _run_simplex(tableau, basis, cost, ncols):
    """Minimise cost over the tableau in place; Bland's rule throughout.
    cost is the objective row (reduced costs maintained by pivoting); the
    final cost row is returned."""
    while True:
        entering = None
        for j in range(ncols):
            if cost[0][j] < 0:
                entering = j
                break
        if entering is None:
            return cost
        leaving = None
        best = None
        for i, (nums, _) in enumerate(tableau):
            if nums[entering] > 0:
                ratio = Fraction(nums[-1], nums[entering])
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leaving])):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise LPError("objective unbounded")
        _pivot(tableau, basis, leaving, entering)
        cost = _eliminate(cost, tableau[leaving], entering)


def solve_lp(A, b, c):
    """
    min c.x subject to A x = b, x >= 0, all data rational.

    Returns (status, x, value) with status "optimal" or "infeasible";
    raises LPError on an unbounded objective.  A zero objective asks for
    feasibility alone: x is then the vertex phase 1 reaches.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c] + [Fraction(0)] * (n - len(c))
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]

    # phase 1: artificials n..n+m-1
    total = n + m
    tableau = [_int_row(A[i] + [int(j == i) for j in range(m)] + [b[i]])
               for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = ([-sum(A[i][j] for i in range(m)) for j in range(n)]
            + [0] * m + [-sum(b)])
    cost = _run_simplex(tableau, basis, _int_row(cost), total)
    if cost[0][-1] != 0:
        return "infeasible", None, None

    # drive remaining artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][0][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [_normalise(tableau[i][0][:n] + [tableau[i][0][-1]],
                          tableau[i][1]) for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    cost = _int_row(c + [0])
    for i, bi in enumerate(basis):
        if cost[0][bi] != 0:
            cost = _eliminate(cost, tableau[i], bi)
    _run_simplex(tableau, basis, cost, n)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        nums, den = tableau[i]
        x[bi] = Fraction(nums[-1], den)
    value = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", x, value

