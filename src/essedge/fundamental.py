"""
Fundamental group data extracted from triangulations.

Two presentations are provided: the edge-generator presentation of a
closed 1-vertex triangulation (generators are oriented edge classes, one
relator per face class), and the dual-spine presentation (generators are
face classes with a spanning tree of the dual graph collapsed, one relator
per edge class).

On the spine side, loops are recorded by their face-crossing words.  A
path on a vertex link crossing from one corner triangle to an adjacent one
crosses the corresponding face of the triangulation, so paths on the
boundary tori, peripheral generators, and the loops needed for the
essential / parallel edge tests are all words in the same generators.
Paths on a link follow the spanning tree that the skeleton's link walk
recorded (`LinkStructure.parent`).  Going once around a link vertex crosses
the faces around its edge class, so each edge-class end at a cusp reads
one relation among the link's cotree cycles off the edge's pivots.

Each of the 2E edge ends is recorded once (`SpineData.ends`): its vertex
class and the word of its link-tree path, with the peripheral subgroup
conjugated by that word built on first use.  The edge loops and the
parallel-test instances are concatenations of these words, so their
exponent vectors are sums of the end words'; the spine keeps no images in
H1.  A torus link's peripheral system holds two generator words and their
crossing cycles, which the cusp rows of the gluing equations read.
"""
from collections import namedtuple
from functools import cached_property

from .presentation import Presentation, free_reduce, inverse_word, concat
from .skeleton import as_skeleton
from .snf import cokernel

# one end of an edge class: its vertex class, and the word of the link-tree
# path from the link's basepoint to the end's corner triangle
EdgeEnd = namedtuple("EdgeEnd", "vertex word")


def presentation_closed(tri_or_skeleton):
    """
    Edge-generator presentation of pi_1 for a closed triangulation with one
    vertex: generator i is edge class i with its stored orientation; each
    face class contributes the relator reading its three boundary edges.
    """
    skeleton = as_skeleton(tri_or_skeleton)
    tri = skeleton.triangulation
    if not tri.is_closed():
        raise ValueError("triangulation has unglued faces")
    if skeleton.vertex_count != 1:
        raise ValueError("need exactly one vertex, found %d"
                         % skeleton.vertex_count)
    relators = []
    for fc in skeleton.face_classes:
        t, f = fc.representatives[0]
        x, y, z = sorted(v for v in range(4) if v != f)
        word = []
        for u, v in ((x, y), (y, z), (z, x)):
            e, sign = skeleton.edge_lookup[(t, u, v)]
            word.append(sign * (e + 1))
        relators.append(free_reduce(word))
    return Presentation(len(skeleton.edge_classes), relators)


# the two chosen peripheral generators of a torus link: their words in the
# spine presentation and the underlying crossing cycles
PeripheralSystem = namedtuple("PeripheralSystem", "words curves")


class SpineData:
    """
    Dual-spine presentation of a closed (possibly ideal) triangulation,
    with the bookkeeping needed to express boundary paths as words.
    """

    def __init__(self, tri_or_skeleton):
        skeleton = as_skeleton(tri_or_skeleton)
        tri = skeleton.triangulation
        if not tri.is_closed():
            raise ValueError("triangulation has unglued faces")
        self.skeleton = skeleton
        self.tri = tri

        # spanning tree of the dual graph, face classes in index order
        component = list(range(tri.tet_count))
        self.tree_faces = set()
        for fc in skeleton.face_classes:
            (t1, _), (t2, _) = fc.representatives
            c1, c2 = component[t1], component[t2]
            if c1 != c2:
                component = [c1 if c == c2 else c for c in component]
                self.tree_faces.add(fc.index)
        self.gen_of_face = {}
        for fc in skeleton.face_classes:
            if fc.index not in self.tree_faces:
                self.gen_of_face[fc.index] = len(self.gen_of_face)
        self.generator_count = len(self.gen_of_face)

        relators = []
        for e in skeleton.edge_classes:
            word = []
            for i in range(e.degree):
                t, _ = e.corners[i]
                letter = self.crossing_letter(t, e.pivots[i])
                if letter:
                    word.append(letter)
            relators.append(free_reduce(word))
        self.presentation = Presentation(self.generator_count, relators)
        self._peripheral = {}
        self._subgroups = {}

    def crossing_letter(self, t, f):
        """Signed generator for crossing out of tetrahedron t through face
        (t, f); 0 for a spanning-tree face."""
        c, slot = self.skeleton.face_lookup[(t, f)]
        if c in self.tree_faces:
            return 0
        g = self.gen_of_face[c] + 1
        return g if slot == 0 else -g

    def crossing_word(self, crossings):
        return free_reduce([x for x in (self.crossing_letter(t, f)
                                        for (t, _v), f in crossings) if x])

    # ---- peripheral generators ----

    def peripheral(self, vertex):
        if vertex not in self._peripheral:
            self._peripheral[vertex] = self._build_peripheral(vertex)
        return self._peripheral[vertex]

    def _build_peripheral(self, vertex):
        link = self.skeleton.vertex_links[vertex]
        if link.surface_kind != "torus":
            raise ValueError("vertex %d link is a %s, not a torus"
                             % (vertex, link.surface_kind))
        structure = link.structure

        def invert(crossing):
            return structure.side_gluing[crossing][:2]

        cotree = structure.cotree_sides()
        cindex = {side: k for k, side in enumerate(cotree)}

        # one relation among the cotree cycles per edge-class end at the
        # cusp: going once around the end crosses the edge's pivot faces
        rows = []
        for e in self.skeleton.edge_classes:
            t0, ab0 = e.corners[0]
            for end in (0, 1):
                if self.vertex_of_end(t0, ab0[end]) != vertex:
                    continue
                row = [0] * len(cotree)
                for (t, ab), pivot in zip(e.corners, e.pivots):
                    key = ((t, ab[end]), pivot)
                    lo, hi = sorted((key, invert(key)))
                    k = cindex.get((lo, hi))
                    if k is not None:
                        row[k] += 1 if key == lo else -1
                rows.append(row)

        # the lex-least pair of cotree cycles generating H1 = Z^2: the
        # cokernel of the rows must have moduli (0, 0), and the pair's
        # columns in its two coordinates determinant +-1
        c = len(cotree)
        coordinates, moduli = cokernel(rows, c)
        chosen = None
        if moduli == (0, 0):
            x, y = coordinates
            chosen = next(((i, j) for i in range(c) for j in range(i + 1, c)
                           if abs(x[i] * y[j] - x[j] * y[i]) == 1), None)
        if chosen is None:
            raise ValueError("no pair of cotree cycles generates the link "
                             "homology (vertex %d)" % vertex)

        words = []
        curves = []
        for k in chosen:
            lo, hi = cotree[k]
            crossings = (structure.path_crossings(lo[0]) + [lo]
                         + [invert(x) for x in
                            reversed(structure.path_crossings(hi[0]))])
            # the based word keeps the full loop; the curve (used for
            # holonomy, which is conjugation-invariant) is cyclically
            # reduced to its geodesic-like core
            words.append(self.crossing_word(crossings))
            curves.append(_reduce_crossings(crossings, invert))
        return PeripheralSystem(tuple(words), tuple(curves))

    # ---- words for the essential / parallel tests ----

    def vertex_of_end(self, t, v):
        return self.skeleton.vertex_of[(t, v)]

    @cached_property
    def ends(self):
        """ends[e]: the `EdgeEnd` records of edge e, at the a and b labels
        of its first corner (t, (a, b))."""
        firsts = (e.corners[0] for e in self.skeleton.edge_classes)
        return [tuple(self._end(t, v) for v in ab) for t, ab in firsts]

    def _end(self, t, v):
        vertex = self.vertex_of_end(t, v)
        structure = self.skeleton.vertex_links[vertex].structure
        return EdgeEnd(vertex, self.crossing_word(
            structure.path_crossings((t, v))))

    def _subgroup(self, end):
        """The peripheral subgroup at an end's vertex conjugated by the
        end's word (w maps to word^-1 w word), built once per end on first
        use: a sphere link has none."""
        if end not in self._subgroups:
            inv = inverse_word(end.word)
            self._subgroups[end] = tuple(
                concat(inv, w, end.word)
                for w in self.peripheral(end.vertex).words)
        return self._subgroups[end]

    def edge_loop_word(self, edge_index):
        """
        The compact-core loop of an ideal edge whose two ends lie at the
        same vertex: connect the ends of the edge arc along the link
        spanning tree.  The edge arc itself crosses no faces of the spine,
        so only the two connecting paths contribute.
        """
        x, y = self.ends[edge_index]
        if x.vertex != y.vertex:
            raise ValueError("edge %d joins distinct vertices" % edge_index)
        return concat(x.word, inverse_word(y.word))

    def parallel_test_data(self, edge_e, edge_f, flip):
        """
        The double-coset instance deciding whether edge e is admissibly
        parallel to edge f (flip False) or to f reversed (flip True).

        Returns (word, h2_gens, h1_gens) with the convention that e is
        parallel to the stated edge iff word lies in <h2><h1>, or None when
        the endpoints do not match up.
        """
        xa, xb = self.ends[edge_e]
        ya, yb = self.ends[edge_f]
        if not flip:  # delta = -f must run from t(e) to i(e)
            ya, yb = yb, ya
        if ya.vertex != xb.vertex or yb.vertex != xa.vertex:
            return None
        word = concat(inverse_word(xb.word), ya.word, inverse_word(yb.word),
                      xa.word)
        return word, self._subgroup(xb), self._subgroup(xa)


def _reduce_crossings(crossings, invert):
    """Cyclically cancel adjacent mutually inverse crossings."""
    out = []
    for x in crossings:
        if out and out[-1] == invert(x):
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == invert(out[-1]):
        out = out[1:-1]
    return out


def presentation_spine(tri_or_skeleton):
    """Dual-spine presentation of pi_1 (tree-collapsed)."""
    return SpineData(tri_or_skeleton).presentation


def peripheral_words(tri_or_skeleton, vertex):
    """The two peripheral generator words at a torus link."""
    return SpineData(tri_or_skeleton).peripheral(vertex).words
