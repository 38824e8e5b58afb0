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
develops each connected cluster of flat tetrahedra separately: it places
one member at (0, 1, oo, z), crosses face gluings by exact cross-ratio,
and checks every instance it builds against the shapes.  A linear
cluster is first walked once around and settled by its holonomy: a
parabolic period means the development closes up under that translation,
and its lifts are scanned exactly modulo it.  Breadth-first development
runs only for branching clusters, or when that walk is inconclusive, and
is conclusive when the development is finite.  A conclusive cluster has
a complete coincidence scan.
"""
from .gaussian import (INFINITY, Moebius, ONE, ZERO, point, fourth_vertex,
                       cross_ratio_shape, moebius_between)
from .shapes import ShapeAssignment, verify_shapes, ShapeError
from .skeleton import as_skeleton
from .triangulation import TET_EDGES, FACE_VERTICES

# vertex orderings realising the three slot shapes as cross-ratios
_SLOT_ORDER = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


class DevelopedTet:
    __slots__ = ("tet", "positions")

    def __init__(self, tet, positions):
        self.tet = tet
        self.positions = tuple(positions)

    def key(self):
        return (self.tet, self.positions)

    def __repr__(self):
        return "DevelopedTet(%d, %s)" % (self.tet, self.positions)


class ClusterScan:
    def __init__(self, tets, conclusive, reason, translation=None,
                 coincidences=(), instance_count=0):
        self.tets = tuple(sorted(tets))
        self.conclusive = conclusive
        self.reason = reason
        self.translation = translation
        self.coincidences = list(coincidences)
        self.instance_count = instance_count

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


def _develop_across(tri, shapes, inst, face):
    """The developed neighbour of an instance through one of its faces."""
    other, sigma = tri.gluing(inst.tet, face)
    positions = [None] * 4
    for v in FACE_VERTICES[face]:
        positions[sigma(v)] = inst.positions[v]
    missing = sigma(face)
    slot_positions = [positions[v] for v in _SLOT_ORDER[0]]
    # solve the slot-0 cross-ratio relation for the missing vertex
    idx = _SLOT_ORDER[0].index(missing)
    slot_positions[idx] = None
    positions[missing] = fourth_vertex(slot_positions, shapes.shapes[other])
    return _check_cross_ratios(shapes, DevelopedTet(other, positions))


def _base_instance(shapes, tet):
    # vertices 0, 1, 2 at 0, 1, oo; the cross-ratio convention then places
    # vertex 3 at 1/(1-z) so that the {01} edge carries the shape z
    z = shapes.shapes[tet]
    return _check_cross_ratios(shapes, DevelopedTet(
        tet, (point(0), point(1), INFINITY, point(ONE / (ONE - z)))))


def _edge_lifts(skeleton, inst):
    """(edge class, endpoint pair) for the six edges of an instance."""
    out = []
    for a, b in TET_EDGES:
        cls = skeleton.edge_lookup[(inst.tet, a, b)][0]
        out.append((cls, inst.positions[a], inst.positions[b]))
    return out


def _check_cross_ratios(shapes, inst):
    """The instance, once its cross-ratios are checked against its
    shapes."""
    for slot, order in enumerate(_SLOT_ORDER):
        got = cross_ratio_shape(*(inst.positions[v] for v in order))
        if got != shapes.slot_value(inst.tet, slot):
            raise ShapeError(
                "developed cross-ratio mismatch on tetrahedron %d slot %d"
                % (inst.tet, slot))
    return inst


def develop_and_scan(tri_or_skeleton, shapes, cluster_cap=200):
    """
    The scan of every flat cluster of exact shapes.  Raises ShapeError
    unless the shapes are exact and pass verify_shapes, or if a developed
    instance's cross-ratios differ from its shapes.
    """
    skeleton = as_skeleton(tri_or_skeleton)
    tri = skeleton.triangulation
    if not isinstance(shapes, ShapeAssignment):
        shapes = ShapeAssignment(shapes)
    if not shapes.exact:
        raise ShapeError("the development needs exact shapes")
    if not verify_shapes(skeleton, shapes).passed:
        raise ShapeError("shape assignment fails the edge equations")
    return DevelopReport([_scan_cluster(tri, skeleton, shapes, cluster,
                                        cluster_cap)
                          for cluster in _flat_clusters(tri, shapes)])


def _flat_clusters(tri, shapes):
    flat = set(shapes.flat_set())
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


def _intra_faces(tri, cluster, t):
    flat = set(cluster)
    return [f for f in range(4)
            if tri.gluing(t, f) is not None and tri.gluing(t, f)[0] in flat]


def _scan_cluster(tri, skeleton, shapes, cluster, cap):
    """
    Scan one flat cluster.  A linear cluster (every member with exactly
    two intra-cluster gluings) is first walked once around and settled by
    its holonomy: a parabolic period makes the development infinite, and
    it is scanned exactly up to that translation.  Breadth-first
    development runs only for branching clusters, or when the walk is
    inconclusive (an identity or non-parabolic period, or none within the
    cap); a finite development is fully scanned and anything else is
    inconclusive.
    """
    linear = all(len(_intra_faces(tri, cluster, t)) == 2 for t in cluster)
    if linear:
        walk = _scan_linear_cluster(tri, skeleton, shapes, cluster, cap)
        if walk.conclusive:
            return walk
    base = _base_instance(shapes, cluster[0])
    seen = {base.key(): base}
    order = [base]
    frontier = [base]
    finite = False
    while frontier and len(seen) <= cap:
        nxt = []
        for inst in frontier:
            for face in _intra_faces(tri, cluster, inst.tet):
                new = _develop_across(tri, shapes, inst, face)
                if new.key() not in seen:
                    seen[new.key()] = new
                    order.append(new)
                    nxt.append(new)
        frontier = nxt
        if not frontier:
            finite = True
    if finite:
        pairs = _coincidences_among(skeleton, order)
        return ClusterScan(cluster, True, "finite development",
                           coincidences=pairs, instance_count=len(order))
    if linear:
        return walk
    return ClusterScan(cluster, False,
                       "development cap %d exceeded (branching cluster)"
                       % cap, instance_count=len(seen))


def _scan_linear_cluster(tri, skeleton, shapes, cluster, cap):
    base_tet = cluster[0]
    base = _base_instance(shapes, base_tet)
    line = [base]
    prev_key = None
    inst = base
    translation = None
    while len(line) <= cap:
        faces = _intra_faces(tri, cluster, inst.tet)
        moved = None
        for face in faces:
            new = _develop_across(tri, shapes, inst, face)
            if new.key() != prev_key:
                moved = new
                break
        if moved is None:
            break
        if moved.tet == base_tet:
            g = moebius_between(base.positions, moved.positions)
            if g is not None and not g.is_identity():
                translation = g
                break
        prev_key = inst.key()
        line.append(moved)
        inst = moved
    if translation is None:
        return ClusterScan(cluster, False,
                           "no period found within %d steps" % cap,
                           instance_count=len(line))
    if not translation.is_parabolic():
        return ClusterScan(cluster, False,
                           "period map is not parabolic",
                           translation=translation,
                           instance_count=len(line))
    pairs = _periodic_coincidences(skeleton, line, translation)
    return ClusterScan(cluster, True,
                       "closes up under a parabolic translation",
                       translation=translation, coincidences=pairs,
                       instance_count=len(line))


def _coincidences_among(skeleton, instances):
    lifts = {}
    pairs = set()
    for inst in instances:
        for cls, p, q in _edge_lifts(skeleton, inst):
            if p == q:
                pairs.add((cls, cls))
                continue
            key = frozenset((p, q))
            for other in lifts.get(key, ()):
                if other != cls:
                    pairs.add(tuple(sorted((cls, other))))
            lifts.setdefault(key, set()).add(cls)
    return sorted(pairs)


def _translation_constant(translation):
    """Conjugate a parabolic map to z -> z + c and return (W, c)."""
    q = translation.parabolic_fixed_point()
    if q.is_infinity:
        w = Moebius(1, 0, 0, 1)
    else:
        w = Moebius(0, 1, 1, -q.value())
    h = w.compose(translation).compose(w.inverse())
    if h.c != ZERO or h.a != h.d:
        raise ValueError("conjugation did not produce a translation")
    return w, h.b / h.a


def _periodic_coincidences(skeleton, core, translation):
    """
    Coincidences among edge lifts of the full line development, which is
    the union of translation^k applied to the core instances.  In the
    coordinate where the translation is z -> z + c, two lifts coincide in
    some translate exactly when their endpoint pairs differ by an integer
    multiple of c.
    """
    w, c = _translation_constant(translation)

    def coord(p):
        img = w(p)
        return None if img.is_infinity else img.value()

    lifts = []
    for inst in core:
        for cls, p, q in _edge_lifts(skeleton, inst):
            lifts.append((cls, coord(p), coord(q)))

    def integer_shift(u, v):
        """k with u = v + k c, or None (None coordinates mean infinity,
        which the translation fixes)."""
        if u is None or v is None:
            return 0 if u is None and v is None else None
        k = (u - v) / c
        if k.im != 0 or k.re.denominator != 1:
            return None
        return int(k.re)

    pairs = set()
    for i, (c1, p1, q1) in enumerate(lifts):
        if p1 == q1:
            pairs.add((c1, c1))
        for c2, p2, q2 in lifts[i + 1:]:
            if c1 == c2:
                continue
            for (u1, u2), (v1, v2) in (((p1, q1), (p2, q2)),
                                       ((p1, q1), (q2, p2))):
                k1 = integer_shift(u1, v1)
                k2 = integer_shift(u2, v2)
                if k1 is not None and k1 == k2:
                    pairs.add(tuple(sorted((c1, c2))))
    return sorted(pairs)
