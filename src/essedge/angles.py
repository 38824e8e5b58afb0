"""
Angle structures on ideal triangulations: exact equation systems, semi and
strict feasibility by one rational LP (t*, the largest possible smallest
angle, is >= 0 exactly when a semi-angle structure exists and > 0
exactly when a strict one does), taut enumeration, and the combinatorial
Gauss-Bonnet sum.  All angles are in units of pi, so the tetrahedron
equations have right-hand side 1 and the edge equations 2.
"""
from fractions import Fraction

from .linprog import solve_lp
from .skeleton import as_skeleton


class AngleVector:
    """3n rationals in pi-units, slots 0..2 per tetrahedron."""

    def __init__(self, entries):
        self.entries = tuple(Fraction(x) for x in entries)
        if len(self.entries) % 3:
            raise ValueError("angle vector length must be a multiple of 3")

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, AngleVector) and self.entries == other.entries

    def slot(self, tet, s):
        return self.entries[3 * tet + s]

    def is_semi(self):
        return all(x >= 0 for x in self.entries)

    def is_taut(self):
        return all(x in (0, 1) for x in self.entries)

    def __repr__(self):
        return "AngleVector(%s)" % (", ".join(str(x) for x in self.entries))


class AngleSystem:
    """
    The angle equality system of a triangulation: one row per tetrahedron
    (slot sum 1) followed by the skeleton's edge rows, one per interior
    edge class (incidence sum 2).
    """

    def __init__(self, skeleton):
        n = skeleton.triangulation.tet_count
        self.columns = 3 * n
        rows = [[int(c // 3 == t) for c in range(self.columns)]
                for t in range(n)]
        self.matrix = rows + skeleton.edge_rows
        self.rhs = [1] * n + [2] * len(skeleton.edge_rows)

    @property
    def shape(self):
        return (len(self.matrix), self.columns)

    def residual(self, angles):
        """Exact residuals of all equalities at an AngleVector."""
        return [sum(r * x for r, x in zip(row, angles.entries)) - b
                for row, b in zip(self.matrix, self.rhs)]

    def satisfied_by(self, angles):
        return all(r == 0 for r in self.residual(angles))


class LPOutcome:
    def __init__(self, status, witness=None, optimum=None):
        self.status = status
        self.witness = witness
        self.optimum = optimum

    @property
    def feasible(self):
        return self.status == "feasible"

    def __repr__(self):
        extra = "" if self.optimum is None else ", t*=%s" % self.optimum
        return "LPOutcome(%s%s)" % (self.status, extra)


def build_angle_system(tri_or_skeleton):
    skeleton = as_skeleton(tri_or_skeleton)
    return AngleSystem(skeleton)


def max_min_angle(skeleton):
    """The one angle LP, held by the skeleton as `angle_lp`: (t*, an
    optimal witness) for t* the largest possible smallest angle, or None
    when the angle equations have no solution."""
    system = AngleSystem(skeleton)
    A, ncols = system.matrix, system.columns
    # substitute x = y + t, y >= 0, t = tp - tm free
    rowsum = [sum(row) for row in A]
    A2 = [row + [rowsum[i], -rowsum[i]] for i, row in enumerate(A)]
    c = [0] * ncols + [-1, 1]
    status, x, value = solve_lp(A2, system.rhs, c)
    if status != "optimal":
        return None
    t = -value
    return t, AngleVector([xi + t for xi in x[:ncols]])


def solve_angle_lp(tri_or_skeleton, mode):
    """
    Exact feasibility of the angle equations, both modes read from the
    skeleton's one LP: a semi-angle structure exists exactly when t* >= 0
    and a strict one exactly when t* > 0.  Both carry the optimal witness,
    whose entries are all >= t*; strict also carries t*.  Without
    tetrahedra the empty vector is semi and nothing is strict.
    """
    if mode not in ("semi", "strict"):
        raise ValueError("mode must be 'semi' or 'strict'")
    skeleton = as_skeleton(tri_or_skeleton)
    if not skeleton.triangulation.tet_count:
        return (LPOutcome("feasible", AngleVector([])) if mode == "semi"
                else LPOutcome("infeasible"))
    if skeleton.angle_lp is None:
        return LPOutcome("infeasible")
    t, witness = skeleton.angle_lp
    if mode == "semi":
        return (LPOutcome("feasible", witness) if t >= 0
                else LPOutcome("infeasible"))
    return LPOutcome("feasible" if t > 0 else "infeasible", witness, t)


def enumerate_taut(tri_or_skeleton, limit=None):
    """
    All taut structures (one slot 1 per tetrahedron, edge sums exactly 2),
    by backtracking in lexicographic slot order; at most `limit` results.
    """
    skeleton = as_skeleton(tri_or_skeleton)
    n = skeleton.triangulation.tet_count
    edges = [e.index for e in skeleton.edge_classes if e.closed]
    # per tet, per slot: incidence counts on each closed edge class
    counts = [[{} for _ in range(3)] for _ in range(n)]
    for e, row in zip(edges, skeleton.edge_rows):
        for col, k in enumerate(row):
            if k:
                t, slot = divmod(col, 3)
                counts[t][slot][e] = k
    max_rest = [{} for _ in range(n + 1)]
    for t in range(n - 1, -1, -1):
        max_rest[t] = {e: max_rest[t + 1].get(e, 0)
                       + max(counts[t][s].get(e, 0) for s in range(3))
                       for e in edges}

    results = []
    acc = {e: 0 for e in edges}
    choice = [0] * n

    def backtrack(t):
        if limit is not None and len(results) >= limit:
            return
        if t == n:
            if all(acc[e] == 2 for e in edges):
                results.append(AngleVector([int(choice[tt] == s)
                                            for tt in range(n)
                                            for s in range(3)]))
            return
        for s in range(3):
            incidence = counts[t][s].items()
            if any(acc[e] + k > 2 for e, k in incidence):
                continue
            for e, k in incidence:
                acc[e] += k
            # prune when some edge can no longer reach 2
            if all(acc[e] + max_rest[t + 1].get(e, 0) >= 2 for e in edges):
                choice[t] = s
                backtrack(t + 1)
            for e, k in incidence:
                acc[e] -= k

    if n == 0:
        return []
    backtrack(0)
    return results


def formal_gauss_bonnet(corner_angles, corner_count):
    """
    Combinatorial area of an n-gon with the given corner angles, in
    pi-units: sum of the angles minus (n - 2).
    """
    angles = [Fraction(x) for x in corner_angles]
    if len(angles) != corner_count:
        raise ValueError("expected %d corner angles, got %d"
                         % (corner_count, len(angles)))
    if corner_count < 3:
        raise ValueError("a disc needs at least 3 corners")
    return sum(angles) - (corner_count - 2)
