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
recorded (`LinkStructure.parent`).  The link of a cusp is a triangulated
torus whose vertices are the edge-class ends at the cusp; once a spanning
tree of those vertices is taken out of the cotree sides, the two sides
left close the cycles of the peripheral pair (tree-cotree decomposition).

Each of the 2E edge ends is recorded once (`SpineData.ends`): its vertex
class and the word of its link-tree path, with the peripheral subgroup
conjugated by that word built on first use.  The path words are built
together, each link triangle's once, from its parent's word.  The edge loops and the
parallel-test instances are concatenations of these words, so their
exponent vectors are sums of the end words'; the spine keeps no images in
H1.  A torus link's peripheral system holds two generator words and their
crossing cycles, which the cusp rows of the gluing equations read.
"""
from collections import namedtuple
from functools import cached_property

from .presentation import Presentation, free_reduce, inverse_word, concat
from .skeleton import as_skeleton

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

        # the link graph: its vertices are the edge-class ends at the cusp,
        # and the side of corner triangle (t, v) in face f joins the ends of
        # edges (v, w) for the two w outside {v, f}.  Past a spanning tree
        # of the vertices, taken by Kruskal from the last cotree side down,
        # the two cotree sides that close a cycle are the lex-least pair
        # whose cycles generate H1 of the torus (tree-cotree decomposition)
        cotree = structure.cotree_sides()
        root = {}

        def find(end):
            while root.get(end, end) != end:
                end = root[end]
            return end

        closing = []
        for k in reversed(range(len(cotree))):
            (t, v), f = cotree[k][0]
            x, y = (find(self.skeleton.edge_lookup[(t, v, w)])
                    for w in range(4) if w != v and w != f)
            if x == y:
                closing.append(k)
            else:
                root[x] = y
        if len(closing) != 2:
            raise ValueError("no pair of cotree cycles generates the link "
                             "homology (vertex %d)" % vertex)

        words = []
        curves = []
        for k in reversed(closing):
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
        words = {}  # link triangle -> the word of its link-tree path
        firsts = (e.corners[0] for e in self.skeleton.edge_classes)
        return [tuple(self._end(t, v, words) for v in ab) for t, ab in firsts]

    def _end(self, t, v, words):
        """The end at corner (t, v).  Its link-tree path climbs to the first
        triangle with a word in `words`; each triangle below it gets its
        parent's word times its one crossing letter, freely reduced."""
        vertex = self.vertex_of_end(t, v)
        parent = self.skeleton.vertex_links[vertex].structure.parent
        tv, chain = (t, v), []
        while tv not in words and parent[tv] is not None:
            chain.append(tv)
            tv = parent[tv][0]
        w = words.setdefault(tv, ())
        for child in reversed(chain):
            (u, _), f = parent[child]
            x = self.crossing_letter(u, f)
            if x:
                w = w[:-1] if w and w[-1] == -x else w + (x,)
            words[child] = w
        return EdgeEnd(vertex, w)

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
