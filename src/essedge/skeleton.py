"""
Quotient skeleton of a triangulation: edge classes, face classes, vertex
links, and the pseudo-manifold classification.

Each edge class is traced once, from its lex-least corner (t, (a, b)),
a < b, and kept as the least of its rotations, reversals and flips.  A
closed cycle's least reading starts at that corner, so it is the lesser of
the two directions around the edge from there: the traced one, and its
reverse read off the faces the trace entered by.  An arc (a boundary edge)
is walked back to its far end and traced once from there, along its whole
length; it is the least of its two directions and their flips.

Everything about the vertices comes from one breadth-first walk per vertex
link over its corner triangles: the vertex classes, each link's side
gluings, its orientation and a spanning tree of the link, which the spine
presentation reads for its boundary paths.  A link's vertices are the
edge-class ends at its vertex, which gives its Euler characteristic without
a further pass.
"""
from functools import cached_property

from .triangulation import TET_EDGES

# slot 0 holds the opposite edge pair {01, 23}, slot 1 {02, 13}, slot 2
# {03, 12}; column 3t + s of the angle and gluing equations is slot s of
# tetrahedron t
PAIR_SLOT = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}


def slot_of(a, b):
    return PAIR_SLOT[(a, b) if a < b else (b, a)]


class EdgeClass:
    """
    An equivalence class of tetrahedron edges.

    corners is the cyclic sequence of (tet, (a, b)) incidences around the
    edge, directions coherent with a chosen orientation of the class; for a
    boundary edge it is an arc rather than a cycle.  Both are in canonical
    reading (see the module docstring).  pivots[i] is the face
    of corners[i]'s tetrahedron crossed to reach corners[i+1] (cyclically
    for a closed edge, so pivots has length degree; length degree-1 for a
    boundary edge).
    """

    def __init__(self, index, corners, pivots, closed=True):
        self.index = index
        self.corners = tuple((t, (a, b)) for t, (a, b) in corners)
        self.pivots = tuple(pivots)
        self.closed = closed

    @property
    def degree(self):
        return len(self.corners)

    def __repr__(self):
        inside = ", ".join("%d (%d%d)" % (t, a, b) for t, (a, b) in self.corners)
        return "EdgeClass(%d, deg %d: %s)" % (self.index, self.degree, inside)


def _cycle_variants(corners):
    n = len(corners)
    flipped = tuple((t, (b, a)) for t, (a, b) in corners)
    seqs = [corners, tuple(reversed(corners)),
            flipped, tuple(reversed(flipped))]
    variants = []
    for seq in seqs:
        for r in range(n):
            variants.append(seq[r:] + seq[:r])
    return variants


def cycles_match(corners1, corners2):
    """Equality of edge cycles up to rotation, reversal and orientation."""
    return tuple(corners2) in set(_cycle_variants(tuple(corners1)))


class FaceClass:
    """A pair of (tet, face) slots identified by a gluing (one slot on the
    boundary)."""

    def __init__(self, index, representatives):
        self.index = index
        self.representatives = tuple(representatives)

    def __repr__(self):
        return "FaceClass(%d, %s)" % (self.index, list(self.representatives))


class VertexLink:
    """The surface of corner triangles around a vertex class."""

    def __init__(self, index, structure, euler_characteristic, orientable,
                 surface_kind, has_boundary):
        self.index = index
        self.structure = structure
        self.euler_characteristic = euler_characteristic
        self.orientable = orientable
        self.surface_kind = surface_kind
        self.has_boundary = has_boundary

    def __repr__(self):
        return "VertexLink(%d, %s, chi=%d)" % (
            self.index, self.surface_kind, self.euler_characteristic)


class LinkStructure:
    """
    Combinatorics of one vertex link, found by one breadth-first walk from
    its lex-least corner triangle taking sides in increasing order.

    triangles: sorted list of corner triangles (tet, vertex); the first is
    the basepoint of the walk.
    side_gluing: ((tet, vertex), side_face) -> ((tet', vertex'), side', sigma)
    for every glued side, where sigma is the tetrahedron gluing permutation.
    orient: triangle -> +-1 when the link is orientable (coherent triangle
    orientations relative to the sorted corner ordering), else None.
    parent: the walk's spanning tree, triangle -> (parent triangle, side of
    the parent crossed to reach it), None at the basepoint.
    """

    def __init__(self, triangles, side_gluing, orient, parent):
        self.triangles = triangles
        self.side_gluing = side_gluing
        self.orient = orient
        self.parent = parent

    def path_crossings(self, tv):
        """Crossings (triangle, out_side) along the tree from the basepoint
        to tv."""
        steps = []
        while self.parent[tv] is not None:
            steps.append(self.parent[tv])
            tv = self.parent[tv][0]
        steps.reverse()
        return steps

    def cotree_sides(self):
        """Glued sides not in the tree, one (lo, hi) pair of slots per side,
        sorted by lo."""
        out = []
        for lo in sorted(self.side_gluing):
            tv2, f2, _ = self.side_gluing[lo]
            hi = (tv2, f2)
            if lo < hi and self.parent[tv2] != lo and self.parent[lo[0]] != hi:
                out.append((lo, hi))
        return out


class SkeletonSummary:
    def __init__(self, tri, vertex_count, edge_classes, face_classes,
                 vertex_links, classification, edge_lookup, face_lookup,
                 vertex_of):
        self.triangulation = tri
        self.vertex_count = vertex_count
        self.edge_classes = edge_classes
        self.face_classes = face_classes
        self.vertex_links = vertex_links
        self.classification = classification
        # (tet, a, b) -> (edge class index, +1 if (a,b) follows the class
        # orientation, else -1)
        self.edge_lookup = edge_lookup
        # (tet, face) -> (face class index, slot 0 or 1)
        self.face_lookup = face_lookup
        # (tet, vertex) -> vertex class index
        self.vertex_of = vertex_of

    @property
    def edge_count(self):
        return len(self.edge_classes)

    @property
    def face_count(self):
        return len(self.face_classes)

    def euler_characteristic(self):
        """V - E + F - T of the pseudo-manifold."""
        return (self.vertex_count - self.edge_count + self.face_count
                - self.triangulation.tet_count)

    def degrees(self):
        return tuple(e.degree for e in self.edge_classes)

    @cached_property
    def edge_rows(self):
        """The edge-slot incidence, built once and shared by the angle and
        gluing equations: one row per interior edge class, in class order,
        counting the class's corners at each of the 3n slot columns."""
        rows = []
        for e in self.edge_classes:
            if e.closed:
                row = [0] * (3 * self.triangulation.tet_count)
                for t, (a, b) in e.corners:
                    row[3 * t + slot_of(a, b)] += 1
                rows.append(row)
        return rows

    @cached_property
    def angle_lp(self):
        """The angle LP (`angles.max_min_angle`), solved on first use."""
        from .angles import max_min_angle  # angles builds on the skeleton
        return max_min_angle(self)

    def __repr__(self):
        return ("SkeletonSummary(%d vertices, %d edges %s, %d faces, %s)"
                % (self.vertex_count, self.edge_count, self.degrees(),
                   self.face_count, self.classification))


class SkeletonError(ValueError):
    pass


def _walk_edge(tri, t, a, b, pivot):
    """
    Walk around an edge from corner (t, (a, b)), crossing pivot first,
    until the walk returns to that corner or meets the boundary.

    Returns (corners, pivots, entries, closed), where entries[i] is the
    face that pivots[i] is glued to, the one crossed to arrive at the next
    corner.  Raises SkeletonError if the walk identifies the edge with
    itself reversing orientation (not a pseudo-manifold).
    """
    corners, pivots, entries = [], [], []
    seen = set()
    while (t, a, b) not in seen:
        if (t, b, a) in seen:
            raise SkeletonError(
                "edge through (%d, %d%d) is identified with itself "
                "reversing orientation" % (t, a, b))
        seen.add((t, a, b))
        corners.append((t, (a, b)))
        entry = tri.gluing(t, pivot)
        if entry is None:
            return corners, pivots, entries, False
        other, sigma = entry
        came_in = sigma(pivot)
        pivots.append(pivot)
        entries.append(came_in)
        t, a, b = other, sigma(a), sigma(b)
        pivot = 6 - a - b - came_in  # the fourth vertex, as 0+1+2+3 = 6
    return corners, pivots, entries, True


def _trace_edge(tri, t0, a0, b0):
    """The canonical (corners, pivots, closed) of the edge class whose
    lex-least corner is (t0, (a0, b0)), a0 < b0 (see the module
    docstring)."""
    c, d = [v for v in range(4) if v not in (a0, b0)]
    corners, pivots, entries, closed = _walk_edge(tri, t0, a0, b0, c)
    if closed:  # the traced direction, or its reverse along the entries
        reverse = (corners[:1] + corners[:0:-1], entries[::-1])
        return min((corners, pivots), reverse) + (True,)
    # an arc: walk back to its far end, and trace it once from there
    back, _, back_entries, _ = _walk_edge(tri, t0, a0, b0, d)
    t, (a, b) = back[-1]
    corners, pivots, entries, _ = _walk_edge(
        tri, t, a, b, back_entries[-1] if back_entries else c)
    readings = [(corners, pivots), (corners[::-1], entries[::-1])]
    readings += [([(t, (b, a)) for t, (a, b) in cs], ps)
                 for cs, ps in readings]
    return min(readings) + (False,)


def _walk_link(tri, start):
    """The structure of the link through corner triangle start, by a
    breadth-first walk taking sides in increasing order."""
    parent = {start: None}
    orient = {start: 1}
    side_gluing = {}
    orientable = True
    order = [start]
    for tv in order:  # the queue: reached triangles append to it
        t, v = tv
        for f in range(4):
            if f == v:
                continue
            entry = tri.gluing(t, f)
            if entry is None:
                continue
            other, sigma = entry
            tv2 = (other, sigma(v))
            side_gluing[(tv, f)] = (tv2, sigma(f), sigma)
            # the sorted corners of the triangle at v run with the
            # tetrahedron's orientation times (-1)^v, and the gluing keeps
            # coherent tetrahedron orientations iff it is odd
            flag = -orient[tv] * sigma.sign() * (-1) ** (v + tv2[1])
            if tv2 not in parent:
                parent[tv2] = (tv, f)
                orient[tv2] = flag
                order.append(tv2)
            elif orient[tv2] != flag:
                orientable = False
    return LinkStructure(sorted(order), side_gluing,
                         orient if orientable else None, parent)


def build_skeleton(tri):
    """
    Compute the full quotient skeleton of a triangulation.

    Mutual-inverse or self-identification violations raise SkeletonError;
    unglued faces are allowed (boundary mode) and produce boundary edge
    classes and links with boundary.
    """
    report = tri.validate()
    hard = [v for v in report.violations if v[0] != "unglued"]
    if hard:
        raise SkeletonError("invalid triangulation: " + "; ".join(
            v[3] for v in hard))
    n = tri.tet_count

    # --- edge classes, each traced from its lex-least corner: the first
    # corner of it met in (tet, TET_EDGES) order ---
    edge_classes = []
    edge_lookup = {}
    for t in range(n):
        for a, b in TET_EDGES:
            if (t, a, b) in edge_lookup:
                continue
            corners, pivots, closed = _trace_edge(tri, t, a, b)
            index = len(edge_classes)
            edge_classes.append(EdgeClass(index, corners, pivots, closed))
            for tt, (aa, bb) in corners:
                edge_lookup[(tt, aa, bb)] = (index, 1)
                edge_lookup[(tt, bb, aa)] = (index, -1)

    # --- face classes ---
    face_classes = []
    face_lookup = {}
    for t in range(n):
        for f in range(4):
            if (t, f) in face_lookup:
                continue
            entry = tri.gluing(t, f)
            if entry is None:
                reps = [(t, f)]
            else:
                other, sigma = entry
                reps = sorted([(t, f), (other, sigma(f))])
            index = len(face_classes)
            face_classes.append(FaceClass(index, reps))
            for slot, rep in enumerate(reps):
                face_lookup[rep] = (index, slot)

    # --- vertex classes: one walk per link, from each class's lex-least
    # corner triangle ---
    structures = []
    vertex_of = {}
    for t in range(n):
        for v in range(4):
            if (t, v) not in vertex_of:
                structure = _walk_link(tri, (t, v))
                for tv in structure.triangles:
                    vertex_of[tv] = len(structures)
                structures.append(structure)

    # link vertices are the edge-class ends at the vertex; no edge is
    # identified with its own reverse, so its two ends are distinct
    link_vertices = [0] * len(structures)
    for e in edge_classes:
        t, (a, b) = e.corners[0]
        link_vertices[vertex_of[(t, a)]] += 1
        link_vertices[vertex_of[(t, b)]] += 1

    # --- vertex links ---
    vertex_links = []
    for vi, structure in enumerate(structures):
        link_f = len(structure.triangles)
        boundary_sides = 3 * link_f - len(structure.side_gluing)
        link_e = len(structure.side_gluing) // 2 + boundary_sides
        chi = link_vertices[vi] - link_e + link_f
        orientable = structure.orient is not None
        has_boundary = boundary_sides > 0
        if has_boundary:
            kind = "other"
        elif chi == 2:
            kind = "sphere"
        elif chi == 0 and orientable:
            kind = "torus"
        elif chi == 0:
            kind = "klein_bottle"
        else:
            kind = "other"
        vertex_links.append(VertexLink(vi, structure, chi, orientable, kind,
                                       has_boundary))

    # --- classification ---
    kinds = {link.surface_kind for link in vertex_links}
    if not tri.is_closed() or n == 0:
        classification = "pseudo_manifold_other"
    elif kinds == {"sphere"} and len(vertex_links) == 1:
        classification = "closed_manifold_1vertex"
    elif kinds <= {"torus", "klein_bottle"}:
        classification = "ideal_all_torus_or_klein"
    else:
        classification = "pseudo_manifold_other"

    return SkeletonSummary(tri, len(vertex_links), edge_classes, face_classes,
                           vertex_links, classification, edge_lookup,
                           face_lookup, vertex_of)


def as_skeleton(tri_or_skeleton):
    """The skeleton of a triangulation, or the given skeleton itself."""
    if hasattr(tri_or_skeleton, "edge_classes"):
        return tri_or_skeleton
    return build_skeleton(tri_or_skeleton)
