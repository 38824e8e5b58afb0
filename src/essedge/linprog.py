"""
Exact linear programming over the rationals: two-phase dense simplex with
Bland's anti-cycling rule, fraction-free (Bareiss 1968; Edmonds 1967).
Problems are tiny (tens of variables).  The tableau T is held as Python
ints over one running denominator d > 0: the true tableau is T/d, and d is
the last pivot (negated when that pivot was negative, with every row).
Pivoting on p = T[r][k] replaces every other row i, the cost row included,
by (p*T[i] - T[i][k]*T[r]) // d, an exact division, and d becomes p.  No
row is normalised, and no Fraction is built before the answer is read.
"""
from fractions import Fraction
from math import lcm


class LPError(Exception):
    pass


def _pivot(rows, basis, d, row, col):
    """Pivot rows on rows[row][col]; returns the new denominator."""
    prow = rows[row]
    p = prow[col]
    for i, target in enumerate(rows):
        if i == row:
            continue
        f = target[col]
        if f:
            rows[i] = [(p * a - f * b) // d for a, b in zip(target, prow)]
        elif p != d:
            rows[i] = [p * a // d for a in target]
    basis[row] = col
    if p < 0:
        rows[:] = [[-a for a in target] for target in rows]
        p = -p
    return p


def _run_simplex(rows, basis, d, ncols):
    """Minimise over the tableau rows[:-1] with cost row rows[-1], in place;
    Bland's rule throughout.  Returns the final denominator."""
    while True:
        cost = rows[-1]
        entering = next((j for j in range(ncols) if cost[j] < 0), None)
        if entering is None:
            return d
        leaving = None
        for i in range(len(rows) - 1):
            a = rows[i][entering]
            if a > 0:
                # b_i / a against the best ratio so far, cross-multiplied
                if leaving is not None:
                    lhs, rhs = rows[i][-1] * best[1], best[0] * a
                    if lhs > rhs or (lhs == rhs
                                     and basis[i] > basis[leaving]):
                        continue
                best, leaving = (rows[i][-1], a), i
        if leaving is None:
            raise LPError("objective unbounded")
        d = _pivot(rows, basis, d, leaving, entering)


def _rationals(values):
    """ints and Fractions as they are; anything else (str, float) as a
    Fraction."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x)
            for x in values]


def _scaled(rows):
    """Rows of rationals times the lcm of all their denominators, as
    ints."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows]


def solve_lp(A, b, c):
    """
    min c.x subject to A x = b, x >= 0, all data rational (ints or
    Fractions).

    Returns (status, x, value) with status "optimal" or "infeasible";
    raises LPError on an unbounded objective.  A zero objective asks for
    feasibility alone: x is then the vertex phase 1 reaches.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    c = _rationals(c) + [0] * (n - len(c))
    # one scale for the whole input keeps every ratio and sign of phase 1
    rows = _scaled([_rationals([*row, bi]) for row, bi in zip(A, b)])
    rows = [[-x for x in row] if row[-1] < 0 else row for row in rows]

    # phase 1: artificials n..n+m-1 at d = 1
    tableau = [row[:n] + [int(j == i) for j in range(m)] + row[-1:]
               for i, row in enumerate(rows)]
    basis = [n + i for i in range(m)]
    cost = [-sum(col) for col in zip(*rows)] if m else [0] * (n + 1)
    tableau.append(cost[:n] + [0] * m + cost[-1:])
    d = _run_simplex(tableau, basis, 1, n + m)
    if tableau.pop()[-1] != 0:
        return "infeasible", None, None

    # drive remaining artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j]), None)
            if col is None:
                continue  # redundant constraint
            d = _pivot(tableau, basis, d, i, col)
        keep.append(i)
    tableau = [tableau[i][:n] + tableau[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: the cost row d*lc - sum lc[b_i] T_i for lc = c scaled
    lc = _scaled([c])[0] + [0]
    cost = [d * x for x in lc]
    for row, bi in zip(tableau, basis):
        if lc[bi]:
            cost = [a - lc[bi] * t for a, t in zip(cost, row)]
    tableau.append(cost)
    d = _run_simplex(tableau, basis, d, n)
    x = [Fraction(0)] * n
    for row, bi in zip(tableau, basis):
        x[bi] = Fraction(row[-1], d)
    value = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", x, value
