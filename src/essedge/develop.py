"""
Flat-cluster scan of a verified exact shape solution.

No global development is needed to decide edges: under any solution of
the gluing equations every edge is essential (Segerman and Tillmann),
since each developed tetrahedron has its shapes, which lie outside
{0, 1, oo}, as cross-ratios, so its four vertices are distinct.

Parallel edges need more.  For a geometric solution (no shape with
negative imaginary part) a tetrahedron with positive volume meets its
neighbours only along faces, so a parallel pair of edges forces a walk
between the two lifts through flat tetrahedra.  The scan therefore
develops each connected cluster of flat tetrahedra once, by exact
cross-ratio: the lowest member at (0, 1, oo, z), the others breadth-first
along a spanning tree of the intra-cluster gluings.  Every other gluing
is crossed once and gives one holonomy generator, and the development is
the orbit of the tree instances under the group these make.  Trivial
holonomy leaves the tree instances, whose edge lifts are compared by
endpoint set; parabolic generators with one fixed point make one
translation, and the lifts are compared modulo it; any other holonomy is
inconclusive.  Every instance is checked against its shapes.

A flat shape is real, so a flat cluster develops on the rational
projective line: a point is a primitive integer pair (x : y) with y > 0,
or oo = (1 : 0), and a Moebius map is a primitive 2x2 integer matrix.
The scan reads the verified solution from its verify_shapes report and
the real slot values from its slot table, which shapes.py derives once:
it checks no edge equation and computes no slot value of its own.
"""
from fractions import Fraction
from itertools import combinations
from math import gcd

from .shapes import ShapeError
from .triangulation import TET_EDGES, FACE_VERTICES

# vertex orderings realising the three slot shapes as cross-ratios
_SLOT_ORDER = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))

INFINITY = (1, 0)


def point(value):
    """The point of a rational number."""
    value = Fraction(value)
    return (value.numerator, value.denominator)


def _primitive(x, y):
    """The point (x : y), as its primitive pair."""
    g = gcd(x, y)
    if not g:
        raise ShapeError("(0 : 0) is not a point")
    if y < 0 or (y == 0 and x < 0):
        g = -g
    return (x // g, y // g)


def _det(p, q):
    return p[0] * q[1] - q[0] * p[1]


def cross_ratio(p0, p1, p2, p3):
    """
    The shape at the {p0 p1} edge of an ideal tetrahedron with the given
    vertex positions, as (numerator, denominator): normalise p0 to 0, p1 to
    oo and p3 to 1, and read off the position of p2.  With this convention
    the slot orderings (0,1,2,3), (0,2,3,1), (0,3,1,2) measure z, 1/(1-z),
    1-1/z.
    """
    return (_det(p2, p0) * _det(p3, p1), _det(p2, p1) * _det(p3, p0))


def fourth_vertex(slot_positions, z):
    """The one None among (p0, p1, p2, p3), solved from the rational shape
    relation cross_ratio(p0, p1, p2, p3) = z."""
    k = slot_positions.index(None)

    def relation(u):
        ps = list(slot_positions)
        ps[k] = u
        num, den = cross_ratio(*ps)
        return num * z.denominator - den * z.numerator

    # linear in the missing point (x : y): alpha * x + beta * y = 0
    return _primitive(-relation(point(0)), relation(INFINITY))


class Moebius:
    """The fractional linear map of a primitive integer matrix
    [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d == b * c:
            raise ValueError("singular Moebius matrix")
        g = gcd(gcd(a, b), gcd(c, d))
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d // g

    def __call__(self, p):
        x, y = p
        return _primitive(self.a * x + self.b * y, self.c * x + self.d * y)

    def compose(self, other):
        """self after other."""
        return Moebius(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self):
        return Moebius(self.d, -self.b, -self.c, self.a)

    def is_identity(self):
        return self.b == 0 and self.c == 0 and self.a == self.d

    def is_parabolic(self):
        """Parabolic or the identity: trace^2 = 4 det."""
        return (self.a + self.d) ** 2 == 4 * (self.a * self.d
                                             - self.b * self.c)

    def translation_frame(self):
        """For a parabolic map T, (W, c) with W T W^-1 the translation
        z -> z + c: W sends the fixed point of T to oo."""
        if not self.is_parabolic():
            raise ValueError("not parabolic")
        if self.c:
            qx, qy = _primitive(self.a - self.d, 2 * self.c)
            w = Moebius(0, qy, qy, -qx)  # z -> 1 / (z - q)
        else:
            w = Moebius(1, 0, 0, 1)
        h = w.compose(self).compose(w.inverse())
        if h.c != 0 or h.a != h.d:
            raise ValueError("conjugation did not produce a translation")
        return w, Fraction(h.b, h.a)

    def __repr__(self):
        return "Moebius([[%d, %d], [%d, %d]])" % (self.a, self.b, self.c,
                                                  self.d)


def _to_standard(p0, p1, p2):
    """The Moebius map sending (p0, p1, p2) to (0, 1, oo)."""
    d12 = _det(p1, p2)
    d10 = _det(p1, p0)
    return Moebius(p0[1] * d12, -p0[0] * d12, p2[1] * d10, -p2[0] * d10)


def moebius_between(points_a, points_b):
    """The Moebius map sending the first tuple of distinct points to the
    second, or None if no single map matches every position."""
    m = _to_standard(*points_b[:3]).inverse().compose(
        _to_standard(*points_a[:3]))
    if any(m(p) != q for p, q in zip(points_a[3:], points_b[3:])):
        return None
    return m


class DevelopedTet:
    __slots__ = ("tet", "positions")

    def __init__(self, tet, positions):
        self.tet = tet
        self.positions = tuple(positions)

    def __repr__(self):
        return "DevelopedTet(%d, %s)" % (self.tet, self.positions)


class ClusterScan:
    def __init__(self, tets, conclusive, reason, translation=None,
                 coincidences=()):
        self.tets = tuple(sorted(tets))
        self.conclusive = conclusive
        self.reason = reason
        self.translation = translation
        self.coincidences = list(coincidences)

    def __repr__(self):
        return "ClusterScan(tets=%s, conclusive=%s, %s)" % (
            self.tets, self.conclusive, self.reason)


class DevelopReport:
    def __init__(self, clusters):
        self.clusters = clusters

    @property
    def conclusive_for_flat_clusters(self):
        return all(c.conclusive for c in self.clusters)

    def __repr__(self):
        return "DevelopReport(%s)" % (self.clusters,)


def _flat_slots(shapes):
    """The three real slot values of each flat tetrahedron, as Fractions,
    read from the shapes' slot table."""
    return {t: tuple(w.re for w in shapes.slots[3 * t:3 * t + 3])
            for t in shapes.flat_set()}


def _develop_across(tri, slots, inst, face):
    """The developed neighbour of an instance through one of its faces."""
    other, sigma = tri.gluing(inst.tet, face)
    positions = [None] * 4
    for v in FACE_VERTICES[face]:
        positions[sigma(v)] = inst.positions[v]
    # solve the slot-0 cross-ratio relation for the missing vertex
    positions[sigma(face)] = fourth_vertex(positions, slots[other][0])
    return _check_cross_ratios(slots, DevelopedTet(other, positions))


def _base_instance(slots, tet):
    # vertices 0, 1, 2 at 0, 1, oo; the cross-ratio convention then places
    # vertex 3 at 1/(1-z) so that the {01} edge carries the shape z
    return _check_cross_ratios(slots, DevelopedTet(
        tet, (point(0), point(1), INFINITY, point(slots[tet][1]))))


def _edge_lifts(skeleton, instances):
    """(edge class, p, q) for the six edges of every instance."""
    return [(skeleton.edge_lookup[(inst.tet, a, b)][0], inst.positions[a],
             inst.positions[b]) for inst in instances for a, b in TET_EDGES]


def _check_cross_ratios(slots, inst):
    """The instance, once its cross-ratios are checked against its
    shapes."""
    for slot, order in enumerate(_SLOT_ORDER):
        num, den = cross_ratio(*(inst.positions[v] for v in order))
        z = slots[inst.tet][slot]
        if not den or num * z.denominator != den * z.numerator:
            raise ShapeError(
                "developed cross-ratio mismatch on tetrahedron %d slot %d"
                % (inst.tet, slot))
    return inst


def develop_and_scan(report):
    """
    The scan of every flat cluster of the shapes of a verify_shapes
    report, each from its one development.  Raises ShapeError unless the
    report passed, or if a developed instance's cross-ratios differ from
    its shapes.
    """
    if not report.passed:
        raise ShapeError("shape assignment fails the edge equations")
    skeleton = report.skeleton
    tri = skeleton.triangulation
    slots = _flat_slots(report.shapes)
    return DevelopReport([_scan_cluster(tri, skeleton, slots, cluster)
                          for cluster in _flat_clusters(tri, slots)])


def _flat_clusters(tri, flat):
    clusters = []
    remaining = set(flat)
    while remaining:
        start = min(remaining)
        comp = {start}
        queue = [start]
        while queue:
            t = queue.pop()
            for f in range(4):
                entry = tri.gluing(t, f)
                if entry and entry[0] in flat and entry[0] not in comp:
                    comp.add(entry[0])
                    queue.append(entry[0])
        clusters.append(sorted(comp))
        remaining -= comp
    return clusters


def _scan_cluster(tri, skeleton, slots, cluster):
    """
    Scan one flat cluster from its one development: the tree instances,
    developed breadth-first from the lowest member, and one holonomy
    generator for each other intra-cluster gluing, crossed once.  The
    lifts of the tree instances are compared by endpoint set under
    trivial holonomy and modulo the translation under cyclic parabolic
    holonomy; any other holonomy is inconclusive.
    """
    members = set(cluster)
    tree = {cluster[0]: _base_instance(slots, cluster[0])}
    order = [tree[cluster[0]]]
    crossed = set()
    generators = []
    for inst in order:
        for face in range(4):
            entry = tri.gluing(inst.tet, face)
            if (entry is None or entry[0] not in members
                    or (inst.tet, face) in crossed):
                continue
            other, sigma = entry
            crossed.add((other, sigma(face)))
            new = _develop_across(tri, slots, inst, face)
            if other not in tree:
                tree[other] = new
                order.append(new)
                continue
            g = moebius_between(tree[other].positions, new.positions)
            if g is None:
                raise ShapeError("no Moebius map between two developed "
                                 "instances of tetrahedron %d" % other)
            generators.append(g)
    conclusive, translation, reason = _holonomy(generators)
    if not conclusive:
        return ClusterScan(cluster, False, reason)
    lifts = _edge_lifts(skeleton, order)
    if translation is None:
        pairs = _coincidences(lifts, lambda p, q: frozenset((p, q)))
    else:
        pairs = _periodic_coincidences(lifts, translation)
    return ClusterScan(cluster, True, reason, translation=translation,
                       coincidences=pairs)


def _holonomy(generators):
    """
    (conclusive, translation, reason) for the group the holonomy
    generators make.  The identity group has no translation.  Parabolic
    generators with one common fixed point are translations z -> z + c_i
    in its frame, and a finitely generated subgroup of Q is cyclic, so
    they make the translation by the gcd of the c_i.  Any other group is
    inconclusive.
    """
    moving = [g for g in generators if not g.is_identity()]
    if not moving:
        return True, None, "trivial holonomy"
    for g in moving:
        if not g.is_parabolic():
            return False, None, "holonomy generator %r is not parabolic" % g
    w, step = moving[0].translation_frame()
    for g in moving:
        # parabolic, so a translation exactly when it fixes oo
        h = w.compose(g).compose(w.inverse())
        if h.c:
            return False, None, ("parabolic holonomy generators with "
                                 "different fixed points")
        c = Fraction(h.b, h.a)
        step = Fraction(gcd(step.numerator * c.denominator,
                            c.numerator * step.denominator),
                        step.denominator * c.denominator)
    translation = w.inverse().compose(Moebius(
        step.denominator, step.numerator, 0, step.denominator)).compose(w)
    return True, translation, "cyclic parabolic holonomy"


def _coincidences(lifts, key):
    """Pairs of distinct edge classes with two lifts of the same key.  The
    cross-ratio check makes the two ends of every lift distinct."""
    classes = {}
    for cls, p, q in lifts:
        classes.setdefault(key(p, q), set()).add(cls)
    pairs = set()
    for members in classes.values():
        pairs.update(combinations(sorted(members), 2))
    return sorted(pairs)


def _periodic_coincidences(lifts, translation):
    """
    Coincidences among (edge class, p, q) lifts and all their images under
    the powers of a parabolic translation.  In the frame where the
    translation is z -> z + c, each lift is keyed by its translate whose
    lower end lies in [0, |c|), with oo the upper end when it is one; two
    lifts coincide in some translate exactly when their keys agree.
    """
    w, c = translation.translation_frame()
    period = abs(c)

    def value(p):
        x, y = w(p)
        return Fraction(x, y) if y else None

    def key(p, q):
        lo, hi = sorted((value(p), value(q)),
                        key=lambda v: (v is None, v or 0))
        shift = lo - lo % period
        return lo - shift, None if hi is None else hi - shift

    return _coincidences(lifts, key)
