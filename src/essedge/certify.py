"""
Certification of essential and strongly essential triangulations.

A certification is one pass over one analysis of the triangulation.  The
analysis builds each fact it needs on first use, once: the skeleton and
its case (a closed one-vertex triangulation, or an ideal one with torus
cusps), the presentation of pi_1 (edge generators when closed, the dual
spine when ideal), the exact verified geometric shape solution and the
scan of its flat clusters.  `certify_essential` runs the edge pass over
it; `certify_strongly_essential` runs the strict angle LP, the edge pass
and then the pair pass.

Both passes run the tiers in one order, the global certificates first:
the angle-structure LP (a semi-angle structure makes every edge
essential, a strict one also rules out parallel edges), then geometry (a
verified shape solution makes every edge essential, and the flat-cluster
scan of a geometric one decides every pair).  Then each subject, an edge
or a pair, is answered from its group questions, each asking whether a
word lies in a double coset H2·H1: an edge is inessential when its loop
lies in its peripheral subgroup, and two edges are parallel when one of
their words lies in its double coset.  An edge joining distinct cusps
asks nothing and is essential; a pair whose ends match in neither
orientation is not parallel.  In the closed case the subgroups are
trivial and the pair words are i·j^-1 and i·j.  Homology, the
abelianisation step of the one group decider, answers edges and pairs
alike: alone when group search is not named, as the decider's first step
when it is.  Angle structures and shapes belong to the ideal case, so a
closed triangulation runs only the homology and group tiers its methods
name, and takes no shapes.

An ideal pair is first compared by its edges' H1 classes (see
`_Analysis.classes`), exponent vectors reduced modulo the lattice of
their cusps, so no Smith normal form of the relator matrix is computed:
a pair that homology separates in every orientation whose ends match is
not parallel without a question asked, and only the other pairs reach
the decider.

Every yes/no answer carries the certificate that produced it, tagged by
its tier: {"kind": tag, "detail": the decider's certificate}, with the
orientation "flip" of a parallel ideal pair.  Certificates without a
witness (the global ones, "distinct_vertices", an ideal pair's
"not parallel" and every unknown) are built once per certification, and
so is each pair's (state, certificate) tuple they answer.  Unknown is an
honest outcome; it names the budget when a group search ran out of it.
"""
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations

from .angles import solve_angle_lp
from .decide import (Budget, abelian_separation, decide_double_coset,
                     exponent_lattice)
from .develop import develop_and_scan
from .fundamental import SpineData, presentation_closed
from .presentation import concat
from .shapes import (ShapeAssignment, as_shapes, verify_shapes,
                     completeness_products, solve_shapes_newton, NewtonError,
                     ShapeError)
from .skeleton import as_skeleton
from .snf import lattice_remainder
from .gaussian import GaussianRational

ALL_METHODS = ("angle", "homology", "geometry", "group")
# the largest denominator of a rationalised Newton coordinate
MAX_DENOMINATOR = 10 ** 6


class EdgeVerdict:
    __slots__ = ("edge", "essential", "certificate")

    def __init__(self, edge, essential, certificate):
        self.edge = edge
        self.essential = essential
        self.certificate = certificate

    def to_json(self):
        return {"edge": self.edge, "essential": self.essential,
                "certificate": self.certificate}

    def __repr__(self):
        return "EdgeVerdict(%d, %s, %s)" % (self.edge, self.essential,
                                            self.certificate.get("kind"))


class TriangulationVerdict:
    """The verdicts of one certification.  Every edge or pair decided by
    one global certificate (an angle structure or the shape solution)
    holds that one certificate object, so certificates are read-only."""

    def __init__(self, essential, strongly_essential, edge_verdicts,
                 pair_table, method_log):
        self.essential = essential
        self.strongly_essential = strongly_essential
        self.edge_verdicts = edge_verdicts
        self.pair_table = pair_table
        self.method_log = method_log

    def to_json(self):
        return {
            "essential": self.essential,
            "strongly_essential": self.strongly_essential,
            "edges": [v.to_json() for v in self.edge_verdicts],
            "pairs": [{"pair": list(k), "parallel": v[0],
                       "certificate": v[1]}
                      for k, v in sorted(self.pair_table.items())],
            "method_log": self.method_log,
        }

    def __repr__(self):
        return ("TriangulationVerdict(essential=%s, strongly=%s)"
                % (self.essential, self.strongly_essential))


class CertifyError(ValueError):
    pass


def _classify(skeleton):
    kind = skeleton.classification
    if kind == "closed_manifold_1vertex":
        return "closed"
    if kind == "ideal_all_torus_or_klein":
        links = {l.surface_kind for l in skeleton.vertex_links}
        if links == {"torus"}:
            return "ideal"
        raise CertifyError("Klein bottle links are not supported")
    raise CertifyError("unsupported classification %r" % kind)


def _aggregate(values):
    if all(v == "yes" for v in values):
        return "yes"
    if any(v == "no" for v in values):
        return "no"
    return "unknown"


def _rationalize(value):
    return Fraction(value).limit_denominator(MAX_DENOMINATOR)


def _exact_shapes(spine, shapes, log):
    """The verify_shapes report of an exact verified geometric shape
    solution (with exact completeness), from the given `ShapeAssignment` or
    by Newton solving and rationalising.  A negatively oriented tetrahedron
    could overlap its neighbours, which the flat-cluster scan assumes away,
    so such a solution is skipped."""
    if shapes is not None:
        candidate = shapes
    else:
        try:
            approx = solve_shapes_newton(spine)
        except (NewtonError, ShapeError) as e:
            log.append("geometry: newton failed (%s)" % e)
            return None
        try:
            candidate = ShapeAssignment([
                GaussianRational(_rationalize(z.real), _rationalize(z.imag))
                for z in approx])
        except ShapeError:
            log.append("geometry: rationalisation degenerate; skipped")
            return None
    negative = [t for t, z in enumerate(candidate.shapes) if z.im < 0]
    if negative:
        log.append("geometry: negatively oriented tetrahedra %s; skipped"
                   % negative)
        return None
    report = verify_shapes(spine.skeleton, candidate)
    if not report.passed:
        log.append("geometry: exact edge equations fail; skipped")
        return None
    if any(p != 1 for p in completeness_products(spine, candidate)):
        log.append("geometry: completeness fails; skipped")
        return None
    log.append("geometry: exact complete solution verified "
               "(flat set %s)" % report.flat)
    return report


class _Analysis:
    """What one certification knows about its triangulation: each fact is
    built on first use, once, and the log says how it was obtained."""

    def __init__(self, tri, budgets, shapes, methods):
        if isinstance(methods, str) or not set(methods) <= set(ALL_METHODS):
            raise CertifyError("methods must be a collection of names from "
                               "%s, not %r" % (", ".join(ALL_METHODS),
                                               methods))
        self.skeleton = as_skeleton(tri)
        self.closed = _classify(self.skeleton) == "closed"
        if shapes is not None:
            if self.closed:
                raise CertifyError("shapes given for a closed triangulation")
            shapes = as_shapes(shapes, self.skeleton)
        self.budgets = budgets or Budget()
        self.shapes = shapes
        self.methods = methods
        self.log = []
        self._once = {}
        self._values = {}

    @cached_property
    def spine(self):
        return SpineData(self.skeleton)

    @cached_property
    def presentation(self):
        if self.closed:
            return presentation_closed(self.skeleton)
        return self.spine.presentation

    @cached_property
    def shape_report(self):
        """The report of the exact verified geometric shape solution, or
        None."""
        return _exact_shapes(self.spine, self.shapes, self.log)

    @cached_property
    def development(self):
        """The flat-cluster scan of the exact shapes, or None without
        them."""
        report = self.shape_report
        return None if report is None else develop_and_scan(report)

    def uses(self, method):
        """Whether a tier runs.  A closed triangulation has no angle
        structures or shapes."""
        if self.closed and method in ("angle", "geometry"):
            return False
        return method in self.methods

    def once(self, kind, budget=False):
        """The certification's one witness-free certificate of this kind,
        naming the budget when a group search ran out of it.  Every subject
        it answers holds the same object."""
        key = kind, budget
        if key not in self._once:
            self._once[key] = ({"kind": kind, "budget": self.budgets.to_json()}
                               if budget else {"kind": kind})
        return self._once[key]

    def pair_value(self, state, certificate):
        """A pair's (state, certificate), one tuple per state and
        certificate object, so every pair a witness-free certificate
        answers holds the same tuple."""
        key = state, id(certificate)
        if key not in self._values:
            self._values[key] = state, certificate
        return self._values[key]

    @cached_property
    def classes(self):
        """classes[e]: the H1 classes (c, c⁻) of edge e, the exponent vector
        d of its end words' difference and -d, each reduced modulo the
        lattice of its two cusps.  Conjugation does not change an exponent
        vector, so that lattice, the span of the relator rows and the cusps'
        peripheral vectors, is every question's between those cusps, and
        `exponent_lattice` echelonises it once per presentation.  A pair
        word's exponent vector is a sum of end vectors, so homology
        separates edges i, j in the orientation that keeps j exactly when
        c(i) != c(j), and in the one that flips j exactly when
        c(i) != c⁻(j)."""
        spine, vector = self.spine, self.presentation.exponent_vector
        lattices = {}  # exponent_lattice derives its key on every call
        classes = []
        for x, y in spine.ends:
            cusps = tuple(sorted({x.vertex, y.vertex}))
            if cusps not in lattices:
                lattices[cusps] = exponent_lattice(self.presentation, [
                    w for v in cusps for w in spine.peripheral(v).words])
            lattice = lattices[cusps]
            d = [a - b for a, b in zip(vector(x.word), vector(y.word))]
            classes.append((lattice_remainder(lattice, d),
                            lattice_remainder(lattice, [-a for a in d])))
        return classes

    def separated_pairs(self, pairs):
        """The ideal pairs that homology separates in each orientation whose
        ends match up, when some orientation does."""
        ends, classes = self.spine.ends, self.classes
        out = set()
        for i, j in pairs:
            (xa, xb), (ya, yb) = ends[i], ends[j]
            ci, (cj, cj_flipped) = classes[i][0], classes[j]
            kept = ya.vertex == xa.vertex and yb.vertex == xb.vertex
            flipped = ya.vertex == xb.vertex and yb.vertex == xa.vertex
            if ((kept or flipped) and not (kept and ci == cj)
                    and not (flipped and ci == cj_flipped)):
                out.add((i, j))
        return out

    def edge_questions(self, e):
        """(None, word, h1, ()), edge e being inessential exactly when the
        word lies in h1; nothing for an ideal edge joining distinct
        vertices, which is essential since a path homotopy fixes both
        ends."""
        if self.closed:
            yield None, (e + 1,), (), ()
            return
        x, y = self.spine.ends[e]
        if x.vertex == y.vertex:
            yield (None, self.spine.edge_loop_word(e),
                   self.spine.peripheral(x.vertex).words, ())

    def pair_questions(self, i, j):
        """(flip, word, h1, h2), edges i and j being parallel exactly when
        some word lies in its H2·H1.  An ideal orientation whose endpoints
        do not match up asks nothing."""
        if self.closed:
            for sign in (-1, 1):
                yield None, concat((i + 1,), (sign * (j + 1),)), (), ()
            return
        for flip in (False, True):
            data = self.spine.parallel_test_data(i, j, flip)
            if data is not None:
                word, h2, h1 = data
                yield flip, word, h1, h2

    def tag(self, detail, flip):
        """The tier tag of a definite group answer to an edge question (flip
        None) or an ideal pair question."""
        if detail["kind"] == "abelianization" and self.uses("homology"):
            return "homology"
        if self.closed:
            return "group_word"
        return "group_membership" if flip is None else "group_double_coset"

    def certificate(self, verdict, flip):
        """The tagged certificate of a definite group answer."""
        certificate = {"kind": self.tag(verdict.certificate, flip)}
        if flip is not None:
            certificate["flip"] = flip
        certificate["detail"] = verdict.certificate
        return certificate

    def answer(self, questions):
        """Whether a subject, an edge or a pair, has a question whose word
        lies in its double coset: "yes" at the first such question, "no"
        when every one is answered no, else "unknown".  With the group tier
        named the decider answers each question, and its abelianisation
        step is the homology tier; with only homology named that step runs
        alone.  A "no" carries its first question's certificate, except an
        ideal pair's, which names its tier alone; an unknown names the
        budget when the group tier searched it."""
        verdicts = []
        for flip, word, h1, h2 in questions:
            if self.uses("group"):
                verdict = decide_double_coset(self.presentation, h1, h2, word,
                                              self.budgets)
            elif self.uses("homology"):
                verdict = abelian_separation(self.presentation, h1, h2, word)
            else:
                verdict = None
            if verdict is None:
                return "unknown", self.once("budget_exhausted")
            if verdict.answer == "yes":
                return "yes", self.certificate(verdict, flip)
            verdicts.append(verdict)
        if not verdicts:
            return "no", self.once("distinct_vertices")
        if any(v.answer == "unknown" for v in verdicts):
            return "unknown", self.once("budget_exhausted", budget=True)
        if flip is None:  # an edge or a closed pair
            return "no", self.certificate(verdicts[0], None)
        tags = {self.tag(v.certificate, flip) for v in verdicts}
        return "no", self.once("homology" if tags == {"homology"}
                               else "group_double_coset")


_ESSENTIAL = {"yes": "no", "no": "yes", "unknown": "unknown"}
_PAIR_STATE = {"yes": "parallel", "no": "not_parallel", "unknown": "unknown"}
@cache
def _index_pairs(n):
    """Every pair of n edge indices, in order: the pair tables of all
    certifications share these key tuples."""
    return tuple(combinations(range(n), 2))


def _edge_pass(a):
    """The essential verdict of every edge."""
    edges = range(len(a.skeleton.edge_classes))
    if a.uses("angle"):
        if solve_angle_lp(a.skeleton, "semi").feasible:
            a.log.append("angle: semi-angle structure found; all edges "
                         "essential")
            return [EdgeVerdict(e, "yes", a.once("semi_angle")) for e in edges]
        a.log.append("angle: no semi-angle structure")
    # Under a verified shape solution every edge is essential: each
    # tetrahedron develops with its shapes, none of them 0, 1 or oo, as
    # cross-ratios, so the endpoints of every lift of an edge are distinct.
    if a.uses("geometry") and a.shape_report is not None:
        return [EdgeVerdict(e, "yes", a.once("geometric_endpoints"))
                for e in edges]
    verdicts = []
    for e in edges:
        member, certificate = a.answer(a.edge_questions(e))
        verdicts.append(EdgeVerdict(e, _ESSENTIAL[member], certificate))
    if not a.closed and any(v.certificate["kind"] == "homology"
                            for v in verdicts):
        a.log.append("homology: peripheral lattice separation applied")
    return verdicts


def _pair_pass(a):
    """The parallelism state of every pair of edges."""
    report = a.development if a.uses("geometry") else None
    coincident = None
    if report is not None and report.conclusive_for_flat_clusters:
        coincident = {tuple(sorted(p)) for cluster in report.clusters
                      for p in cluster.coincidences}
        a.log.append("geometry: flat-cluster scan conclusive; "
                     "coincident pairs %s" % sorted(coincident))
    elif report is not None:
        a.log.append("geometry: flat-cluster scan not conclusive")
    index_pairs = _index_pairs(len(a.skeleton.edge_classes))
    # an ideal pair that homology separates in every orientation is not
    # parallel, with the certificate `answer` would give it
    separated, not_parallel = (), None
    if coincident is None and not a.closed and (a.uses("homology")
                                                or a.uses("group")):
        separated = a.separated_pairs(index_pairs)
        not_parallel = a.pair_value("not_parallel", a.once(
            "homology" if a.uses("homology") else "group_double_coset"))
    pairs = {}
    for pair in index_pairs:
        if coincident is not None:
            state = "parallel" if pair in coincident else "not_parallel"
            pairs[pair] = a.pair_value(state, a.once("geometric_scan"))
        elif pair in separated:
            pairs[pair] = not_parallel
        else:
            member, certificate = a.answer(a.pair_questions(*pair))
            pairs[pair] = a.pair_value(_PAIR_STATE[member], certificate)
    return pairs


def certify_essential(tri, budgets=None, shapes=None, methods=ALL_METHODS):
    """Per-edge and whole-triangulation essential verdicts."""
    a = _Analysis(tri, budgets, shapes, methods)
    edges = _edge_pass(a)
    return TriangulationVerdict(_aggregate([v.essential for v in edges]),
                                None, edges, {}, a.log)


def certify_strongly_essential(tri, budgets=None, shapes=None,
                               methods=ALL_METHODS):
    """Essential plus pairwise non-parallelism verdicts."""
    a = _Analysis(tri, budgets, shapes, methods)
    if a.uses("angle"):
        strict = solve_angle_lp(a.skeleton, "strict")
        if strict.feasible:
            a.log.append("angle: strict angle structure (t* = %s); strongly "
                         "essential" % strict.optimum)
            edges = [EdgeVerdict(e.index, "yes", a.once("strict_angle"))
                     for e in a.skeleton.edge_classes]
            return TriangulationVerdict("yes", "yes", edges, {}, a.log)
        a.log.append("angle: strict optimum %s; no strict angle structure"
                     % (strict.optimum,))
    edges = _edge_pass(a)
    essential = _aggregate([v.essential for v in edges])
    if essential == "no":
        return TriangulationVerdict("no", "no", edges, {}, a.log)
    pairs = _pair_pass(a)
    states = [state for state, _ in pairs.values()]
    if "parallel" in states:
        strongly = "no"
    elif essential == "yes" and all(s == "not_parallel" for s in states):
        strongly = "yes"
    else:
        strongly = "unknown"
    return TriangulationVerdict(essential, strongly, edges, pairs, a.log)
