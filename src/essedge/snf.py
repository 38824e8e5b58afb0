"""
Integer matrix normal forms: Smith normal form with transforms, abelian
group invariants, integer linear solving and homology of short chain
complexes.  Matrices are lists of row lists of Python ints.
"""


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _Worker:
    def __init__(self, matrix):
        self.A = [list(r) for r in matrix]
        self.rows = len(self.A)
        self.cols = len(self.A[0]) if self.rows else 0
        self.U = _identity(self.rows)
        self.V = _identity(self.cols)

    def swap_rows(self, i, j):
        self.A[i], self.A[j] = self.A[j], self.A[i]
        self.U[i], self.U[j] = self.U[j], self.U[i]

    def swap_cols(self, i, j):
        for r in self.A:
            r[i], r[j] = r[j], r[i]
        for r in self.V:
            r[i], r[j] = r[j], r[i]

    def add_row(self, src, dst, k):
        self.A[dst] = [a + k * b for a, b in zip(self.A[dst], self.A[src])]
        self.U[dst] = [a + k * b for a, b in zip(self.U[dst], self.U[src])]

    def add_col(self, src, dst, k):
        for r in self.A:
            r[dst] += k * r[src]
        for r in self.V:
            r[dst] += k * r[src]

    def negate_row(self, i):
        self.A[i] = [-a for a in self.A[i]]
        self.U[i] = [-a for a in self.U[i]]

    def diagonalise(self):
        A = self.A
        t = 0
        while t < min(self.rows, self.cols):
            # the first entry of least absolute value, in row order; no
            # entry comes below 1, so the scan stops at the first unit
            pivot = best = None
            for i in range(t, self.rows):
                for j in range(t, self.cols):
                    if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                        pivot, best = (i, j), abs(A[i][j])
                        if best == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            self.swap_rows(t, pivot[0])
            self.swap_cols(t, pivot[1])
            if A[t][t] < 0:
                self.negate_row(t)
            while True:
                for i in range(t + 1, self.rows):
                    if A[i][t] != 0:
                        self.add_row(t, i, -(A[i][t] // A[t][t]))
                        if A[i][t] != 0:
                            # remainder is a smaller pivot candidate
                            self.swap_rows(t, i)
                            if A[t][t] < 0:
                                self.negate_row(t)
                if any(A[i][t] for i in range(t + 1, self.rows)):
                    continue
                for j in range(t + 1, self.cols):
                    if A[t][j] != 0:
                        self.add_col(t, j, -(A[t][j] // A[t][t]))
                        if A[t][j] != 0:
                            self.swap_cols(t, j)
                            if A[t][t] < 0:
                                self.negate_row(t)
                if any(A[i][t] for i in range(t + 1, self.rows)):
                    continue
                if any(A[t][j] for j in range(t + 1, self.cols)):
                    continue
                break
            t += 1


def smith_normal_form(matrix):
    """
    Returns (d, U, V) with U * M * V diagonal, U and V unimodular, and d
    the diagonal: nonnegative entries with d[0] | d[1] | ... and trailing
    zeros for the kernel.
    """
    w = _Worker(matrix)
    w.diagonalise()
    n = min(w.rows, w.cols)
    while True:
        bad = None
        for i in range(n - 1):
            a, b = w.A[i][i], w.A[i + 1][i + 1]
            if a != 0 and b % a != 0:
                bad = i
                break
            if a == 0 and b != 0:
                bad = i
                break
        if bad is None:
            break
        # fold column bad+1 into column bad and rediagonalise
        w.add_col(bad + 1, bad, 1)
        w.diagonalise()
    d = [w.A[i][i] for i in range(n)]
    return d, w.U, w.V


def abelian_invariants(rel_matrix, ngens):
    """
    Invariant factors of Z^ngens modulo the row space of rel_matrix:
    the nontrivial torsion factors in divisibility order, then one 0 per
    free factor.  [[2,0],[0,0]] with 2 generators gives (2, 0).
    """
    rel_matrix = [r for r in rel_matrix if any(r)]
    if not rel_matrix:
        return (0,) * ngens
    d, _, _ = smith_normal_form(rel_matrix)
    r = sum(1 for x in d if x != 0)
    torsion = tuple(x for x in d if x > 1)
    return torsion + (0,) * (ngens - r)


def solve_integer(matrix, target):
    """
    One integer solution x of M x = target, or None.  M given as rows
    (one row per equation).
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return None if any(target) else []
    if cols == 0:
        return None if any(target) else []
    d, U, V = smith_normal_form(matrix)
    # M x = t  <=>  D y = U t with x = V y
    ut = [sum(U[i][k] * target[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i] if i < len(d) else 0
        if di == 0:
            if ut[i] != 0:
                return None
        else:
            if ut[i] % di != 0:
                return None
            y[i] = ut[i] // di
    return [sum(V[i][k] * y[k] for k in range(cols)) for i in range(cols)]


def lattice_echelon(vectors, n):
    """An echelon basis of the integer span of the vectors: (pivot, vector)
    pairs with increasing pivots, each vector zero before its pivot."""
    pool = [list(v) for v in vectors if any(v)]
    basis = []
    for i in range(n):
        while True:
            hits = [v for v in pool if v[i]]
            if not hits:
                break
            piv = min(hits, key=lambda v: abs(v[i]))
            done = True
            for v in hits:
                if v is not piv:
                    q = v[i] // piv[i]
                    v[:] = [a - q * b for a, b in zip(v, piv)]
                    done = done and not v[i]
            if done:
                pool = [v for v in pool if v is not piv and any(v)]
                basis.append((i, piv))
                break
    return basis


def lattice_remainder(basis, target):
    """The remainder of target modulo the lattice with this echelon basis:
    at each pivot in turn, the floor quotient of the basis vector is taken
    off.  Two vectors have the same remainder exactly when their difference
    lies in the lattice, so a vector lies in it exactly when its remainder
    is zero."""
    t = list(target)
    for i, v in basis:
        q = t[i] // v[i]
        if q:
            t = [a - q * b for a, b in zip(t, v)]
    return tuple(t)


def in_column_span(columns, target):
    """Whether target lies in the integer span of the given column vectors."""
    return not any(lattice_remainder(lattice_echelon(columns, len(target)),
                                     target))


def cokernel(rel_matrix, ngens):
    """Z^ngens modulo the rows of rel_matrix, from one Smith normal form
    U Mt V = D of the transposed matrix: (rows of U, moduli d), d = 0 for a
    free summand.  v lies in the row space exactly when each (U v)_i is a
    multiple of d_i, so coordinates of modulus 1 are dropped."""
    d, U, _ = smith_normal_form([[r[g] for r in rel_matrix]
                                 for g in range(ngens)])
    d += [0] * (ngens - len(d))
    kept = [i for i in range(ngens) if d[i] != 1]
    return tuple(tuple(U[i]) for i in kept), tuple(d[i] for i in kept)


def homology_invariants(d1, d2, n1):
    """
    Invariants of ker(d1) / im(d2) for integer boundary maps d1: C1 -> C0
    and d2: C2 -> C1 (d1: one row per C0 generator, one column per C1
    generator; d2: one row per C1 generator, one column per C2 generator).
    """
    if n1 == 0:
        return ()
    if d1 and any(any(r) for r in d1):
        d, _, V = smith_normal_form(d1)
        r = sum(1 for x in d if x != 0)
        kernel = [[V[i][j] for i in range(n1)] for j in range(r, n1)]
    else:
        kernel = [[1 if i == j else 0 for i in range(n1)] for j in range(n1)]
    if not kernel:
        return ()
    k = len(kernel)
    kernel_matrix = [[kernel[j][i] for j in range(k)] for i in range(n1)]
    rel = []
    ncols = len(d2[0]) if d2 and d2[0] else 0
    for c in range(ncols):
        col = [d2[i][c] for i in range(n1)]
        x = solve_integer(kernel_matrix, col)
        if x is None:
            raise ValueError("chain complex: d2 image not inside ker d1")
        rel.append(x)
    return abelian_invariants(rel, k)
