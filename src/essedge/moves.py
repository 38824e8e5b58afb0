"""
Elementary moves on triangulations: the bistellar 2-3 and 3-2 moves and
the 0-2 pillow move (ungluing two faces adjacent along an edge and sewing
in two tetrahedra that share two faces and a degree-two edge).

Inputs are never mutated; outputs are fresh triangulations with surviving
tetrahedra renumbered compactly and new tetrahedra appended at the end of
the index range.  The MoveRecord reports the renumbering so callers can
track simplices across the move.
"""
from .triangulation import Perm4, Triangulation, _perm_from_map
from .skeleton import build_skeleton, slot_of
from .angles import AngleVector


class MoveError(ValueError):
    pass


class MoveRecord:
    def __init__(self, kind, site, created, tet_map, **extra):
        self.kind = kind
        self.site = site
        self.created = created
        self.tet_map = tet_map
        for key, value in extra.items():
            setattr(self, key, value)

    def __repr__(self):
        return "MoveRecord(%s at %s, created %s)" % (self.kind, self.site,
                                                     self.created)


def _rebuild(tri, dying, new_count, internal, portals):
    """
    Assemble the moved triangulation.

    dying: old tetrahedron indices to remove; survivors are renumbered
    compactly and new tetrahedra appended.  internal: gluings among new
    tetrahedra, as (new_local, face, new_local2, Perm4).  portals: for each
    old boundary face (old_tet, old_face) of the dying region, a triple
    (new_local, new_face, perm old_labels->new_labels).
    """
    n = tri.tet_count
    survivors = [t for t in range(n) if t not in dying]
    new_index = {t: i for i, t in enumerate(survivors)}
    base = len(survivors)
    total = base + new_count
    rows = [[None] * 4 for _ in range(total)]

    def resolve(tet, face, perm_into):
        """Where does a path leaving (tet, face) of the old triangulation
        end up?  perm_into carries labels into the old target."""
        entry = tri.gluing(tet, face)
        if entry is None:
            return None
        other, sigma = entry
        if other not in dying:
            return (new_index[other], sigma * perm_into)
        # landing on a dying tetrahedron: reroute through its portal
        pf = sigma(face)
        local, new_face, pi = portals[(other, pf)]
        return (base + local, pi * sigma * perm_into)

    for local, face, local2, perm in internal:
        rows[base + local][face] = (base + local2, perm)
        rows[base + local2][perm(face)] = (base + local, perm.inverse())

    # survivors keep their outer gluings, rerouted through portals
    for t in survivors:
        for f in range(4):
            entry = tri.gluing(t, f)
            if entry is None:
                continue
            other, sigma = entry
            if other not in dying:
                rows[new_index[t]][f] = (new_index[other], sigma)
            else:
                pf = sigma(f)
                local, new_face, pi = portals[(other, pf)]
                rows[new_index[t]][f] = (base + local, pi * sigma)
                rows[base + local][new_face] = (
                    new_index[t], (pi * sigma).inverse())

    # boundary faces of the dying region glued to the dying region itself
    for (t, f), (local, new_face, pi) in portals.items():
        if rows[base + local][new_face] is not None:
            continue
        target = resolve(t, f, pi.inverse())
        if target is None:
            continue
        other_new, perm = target
        rows[base + local][new_face] = (other_new, perm)
        rows[other_new][perm(new_face)] = (base + local, perm.inverse())

    tet_map = {t: new_index[t] for t in survivors}
    return Triangulation(total, rows, name=tri.name), tet_map, base


def _class_at(classes, index, kind):
    """classes[index], or MoveError for an index that names no class."""
    if not 0 <= index < len(classes):
        raise MoveError("no %s class %d: there are %d" % (kind, index,
                                                          len(classes)))
    return classes[index]


def pachner_2_3(tri, face_class_index, skeleton=None):
    """
    Replace the two tetrahedra glued along the given face class by three
    around a new degree-3 edge.  Rejected when the face class is a
    self-gluing of a single tetrahedron.
    """
    skeleton = skeleton or build_skeleton(tri)
    fc = _class_at(skeleton.face_classes, face_class_index, "face")
    if len(fc.representatives) != 2:
        raise MoveError("face class %d is a boundary face" % face_class_index)
    (t0, f0), _ = fc.representatives
    other, sigma = tri.gluing(t0, f0)
    if other == t0:
        raise MoveError("face class %d is a self-gluing of tetrahedron %d"
                        % (face_class_index, t0))
    t1, f1 = other, sigma(f0)
    face = sorted(v for v in range(4) if v != f0)
    pairs = [(face[0], face[1]), (face[1], face[2]), (face[2], face[0])]

    # new tetrahedron k has 0 -> apex of t0, 1 -> apex of t1, and 2,3 the
    # k-th edge of the old common face
    internal = []
    for k in range(3):
        # face 2 of tet k meets face 3 of tet k+1 along {0, 1, face[k+1]}
        internal.append((k, 2, (k + 1) % 3, Perm4((0, 1, 3, 2))))
    portals = {}
    for k in range(3):
        u, v = pairs[k]
        w = 6 - f0 - u - v  # face vertex not on edge k
        portals[(t0, w)] = (k, 1, _perm_from_map({f0: 0, u: 2, v: 3}))
        portals[(t1, sigma(w))] = (
            k, 0, _perm_from_map({f1: 1, sigma(u): 2, sigma(v): 3}))
    out, tet_map, base = _rebuild(tri, {t0, t1}, 3, internal, portals)
    record = MoveRecord("two_three", face_class_index,
                        [base, base + 1, base + 2], tet_map,
                        new_edge_corner=(base, (0, 1)))
    return out, record


def pachner_3_2(tri, edge_class_index, skeleton=None):
    """
    Collapse a degree-3 edge with three distinct tetrahedra around it into
    two tetrahedra glued along a face; inverse of pachner_2_3.
    """
    skeleton = skeleton or build_skeleton(tri)
    e = _class_at(skeleton.edge_classes, edge_class_index, "edge")
    if not e.closed or e.degree != 3:
        raise MoveError("edge class %d does not have degree 3"
                        % edge_class_index)
    tets = [c[0] for c in e.corners]
    if len(set(tets)) != 3:
        raise MoveError("edge class %d has repeated tetrahedra"
                        % edge_class_index)
    # around the edge: corner i shares equatorial vertex E_i with corner
    # i+1 (label 6-a-b-pivot in corner i, label pivot in corner i+1)
    internal = [(0, 0, 1, Perm4((0, 1, 2, 3)))]
    portals = {}
    for i in range(3):
        t, (a, b) = e.corners[i]
        pivot = e.pivots[i]
        w_plus = 6 - a - b - pivot     # shared with the next corner, E_i
        w_minus = pivot                # shared with the previous, E_{i-1}
        local_plus = (i % 3) + 1
        local_minus = ((i - 1) % 3) + 1
        # face opposite b: contains a and both equatorials; goes to the
        # apex-a side, new tetrahedron 0
        portals[(t, b)] = (0, ((i + 1) % 3) + 1, _perm_from_map(
            {a: 0, w_minus: local_minus, w_plus: local_plus}))
        portals[(t, a)] = (1, ((i + 1) % 3) + 1, _perm_from_map(
            {b: 0, w_minus: local_minus, w_plus: local_plus}))
    out, tet_map, base = _rebuild(tri, set(tets), 2, internal, portals)
    record = MoveRecord("three_two", edge_class_index, [base, base + 1],
                        tet_map)
    return out, record


def pillow_0_2(tri, edge_class_index, sites, skeleton=None):
    """
    The 0-2 move: unglue along the edge class and the two faces at the
    cycle positions given by sites=(i, j), then sew a pillow of two
    tetrahedra (sharing two faces and a degree-2 edge) into the slit.

    The two chosen faces must lie in distinct face classes.  The pillow
    tetrahedra n, n+1 carry the degree-2 edge at {0,1} and their copies of
    the split edge at {2,3}.
    """
    skeleton = skeleton or build_skeleton(tri)
    e = _class_at(skeleton.edge_classes, edge_class_index, "edge")
    if not e.closed:
        raise MoveError("edge class %d is a boundary edge" % edge_class_index)
    i, j = sites
    deg = e.degree
    if not (0 <= i < deg and 0 <= j < deg) or i == j:
        raise MoveError("sites %r out of range for degree %d" % (sites, deg))
    fi = skeleton.face_lookup[(e.corners[i][0], e.pivots[i])][0]
    fj = skeleton.face_lookup[(e.corners[j][0], e.pivots[j])][0]
    if fi == fj:
        raise MoveError("sites %r select the same face class" % (sites,))

    n = tri.tet_count
    rows = [[tri.gluing(t, f) for f in range(4)] for t in range(n)]
    p0, p1 = n, n + 1
    rows.append([None] * 4)
    rows.append([None] * 4)
    # pillow internal gluings: identity through both faces containing {0,1}
    ident = Perm4((0, 1, 2, 3))
    rows[p0][2] = (p1, ident)
    rows[p1][2] = (p0, ident)
    rows[p0][3] = (p1, ident)
    rows[p1][3] = (p0, ident)

    def cut_sides(pos):
        """The two sides of the face gluing leaving corner pos: the near
        side (t, pivot) and the far side with the edge's image labels."""
        t, (a, b) = e.corners[pos]
        pivot = e.pivots[pos]
        other, sigma = tri.gluing(t, pivot)
        return (t, pivot, a, b), (other, sigma(pivot), sigma(a), sigma(b))

    near_i, far_i = cut_sides(i)
    near_j, far_j = cut_sides(j)

    def attach(pillow_tet, pillow_face, side):
        """Glue a pillow boundary face onto one free side of the slit,
        aligning the pillow's {2,3} edge with the split edge copies."""
        t, face, a, b = side
        w = 6 - a - b - face
        perm = _perm_from_map({pillow_face: face, 1 - pillow_face: w,
                               2: a, 3: b})
        rows[pillow_tet][pillow_face] = (t, perm)
        rows[t][face] = (pillow_tet, perm.inverse())

    # each pillow disc (faces 0 and 1, sharing the {2,3} edge copy) closes
    # one side of the slit, so the old edge splits into the two arcs
    # between the cuts; face 0 carries the square edges at the slit's
    # cut-face apex on each side
    attach(p0, 0, far_i)
    attach(p0, 1, near_j)
    attach(p1, 0, near_i)
    attach(p1, 1, far_j)

    out = Triangulation(n + 2, rows, name=tri.name)
    new_skeleton = build_skeleton(out)
    degree2 = new_skeleton.edge_lookup[(p0, 0, 1)][0]
    split = sorted({new_skeleton.edge_lookup[(p0, 2, 3)][0],
                    new_skeleton.edge_lookup[(p1, 2, 3)][0]})
    record = MoveRecord("zero_two", (edge_class_index, sites), [p0, p1],
                        {t: t for t in range(n)}, degree2_edge=degree2,
                        split_edges=tuple(split))
    return out, record


def extend_taut(tri, edge_class_index, sites, angles, skeleton=None):
    """
    Transport a taut structure through pillow_0_2.  Requires the two
    pi-corners around the split edge to fall on opposite sides of the two
    unglued faces; the pillow tetrahedra get their pi-pair on the slot
    carrying both the degree-2 edge and the split-edge copies.
    """
    skeleton = skeleton or build_skeleton(tri)
    if not angles.is_taut():
        raise MoveError("input angle vector is not taut")
    e = _class_at(skeleton.edge_classes, edge_class_index, "edge")
    i, j = sites
    lo, hi = min(i, j), max(i, j)
    arcs = [range(lo + 1, hi + 1), [k % e.degree
                                    for k in range(hi + 1, lo + 1 + e.degree)]]
    pi_count = []
    for arc in arcs:
        total = 0
        for pos in arc:
            t, (a, b) = e.corners[pos]
            total += angles.slot(t, slot_of(a, b))
        pi_count.append(total)
    if pi_count != [1, 1]:
        raise MoveError("pi angles at the edge are not on opposite sides "
                        "of the chosen faces (arc sums %s)" % (pi_count,))
    entries = list(angles.entries) + [1, 0, 0, 1, 0, 0]
    return AngleVector(entries)
