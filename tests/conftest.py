import importlib.resources as resources

import pytest

from essedge import parse_triangulation, build_skeleton
from essedge.decide import cyclic_canonical
from essedge.presentation import free_reduce, inverse_word
from essedge.snf import homology_invariants, smith_normal_form


def fixture_text(name):
    return (resources.files("essedge") / "fixtures" / name).read_text()


@pytest.fixture(scope="session")
def m136():
    return parse_triangulation(fixture_text("m136.tri"))


@pytest.fixture(scope="session")
def fig8():
    return parse_triangulation(fixture_text("fig8.tri"))


@pytest.fixture(scope="session")
def q8():
    return parse_triangulation(fixture_text("q8.tri"))


@pytest.fixture(scope="session")
def m136_skeleton(m136):
    return build_skeleton(m136)


@pytest.fixture(scope="session")
def fig8_skeleton(fig8):
    return build_skeleton(fig8)


@pytest.fixture(scope="session")
def q8_skeleton(q8):
    return build_skeleton(q8)


@pytest.fixture(scope="session")
def m136_shapes():
    from essedge.shapes import parse_shapes
    return parse_shapes(fixture_text("m136_shapes.txt"))


def primal_h1(skeleton):
    """H1 of the pseudo-manifold from its CW chain complex: vertices,
    edge classes, face classes.  Independent of any group presentation."""
    n0 = skeleton.vertex_count
    n1 = skeleton.edge_count
    d1 = [[0] * n1 for _ in range(n0)]
    for e in skeleton.edge_classes:
        t, (a, b) = e.corners[0]
        d1[skeleton.vertex_of[(t, b)]][e.index] += 1
        d1[skeleton.vertex_of[(t, a)]][e.index] -= 1
    n2 = skeleton.face_count
    d2 = [[0] * n2 for _ in range(n1)]
    for fc in skeleton.face_classes:
        t, f = fc.representatives[0]
        x, y, z = sorted(v for v in range(4) if v != f)
        for u, v in ((x, y), (y, z), (z, x)):
            e, sign = skeleton.edge_lookup[(t, u, v)]
            d2[e][fc.index] += sign
    return homology_invariants(d1, d2, n1)


def dual_h1(skeleton):
    """H1 of the compact core from the dual CW structure: tetrahedra,
    face classes, edge classes."""
    n0 = skeleton.triangulation.tet_count
    n1 = skeleton.face_count
    d1 = [[0] * n1 for _ in range(n0)]
    for fc in skeleton.face_classes:
        (t1, _), (t2, _) = fc.representatives
        d1[t2][fc.index] += 1
        d1[t1][fc.index] -= 1
    n2 = skeleton.edge_count
    d2 = [[0] * n2 for _ in range(n1)]
    for e in skeleton.edge_classes:
        for i in range(e.degree):
            t, _ = e.corners[i]
            c, slot = skeleton.face_lookup[(t, e.pivots[i])]
            d2[c][e.index] += 1 if slot == 0 else -1
    return homology_invariants(d1, d2, n1)


def cokernel_reducer(rel_matrix, ngens):
    """
    A reference reduction map for Z^ngens / rowspace(rel_matrix): takes an
    exponent vector to a canonical tuple that is zero exactly on the row
    space.  No library code calls it: it is the reference the tests hold
    `snf.cokernel` and the abelianisation to.
    """
    rel_matrix = [r for r in rel_matrix if any(r)]
    if not rel_matrix:
        return lambda v: tuple(v)
    # treat relator vectors as the columns of a map into Z^ngens
    matrix = [[rel_matrix[r][g] for r in range(len(rel_matrix))]
              for g in range(ngens)]
    d, U, _ = smith_normal_form(matrix)

    def reduce_vec(v):
        support = [(k, x) for k, x in enumerate(v) if x]
        uv = [sum(row[k] * x for k, x in support) for row in U]
        out = []
        for i in range(ngens):
            di = d[i] if i < len(d) else 0
            out.append(uv[i] % di if di else uv[i])
        return tuple(out)

    return reduce_vec


def inverse_times(u, w):
    """u^-1 w for freely reduced u and w: only the junction cancels, so
    their common prefix is all that goes.  The reference the factorisation
    scan's length-pruned quotient is held to."""
    k = 0
    for a, b in zip(u, w):
        if a != b:
            break
        k += 1
    return inverse_word(u[k:]) + w[k:]


def reference_factorization(t1, t2, word):
    """The factorisation scan with neither the exponent-sum filter nor
    length pruning: the factor lists of the first product p2 of the H2
    table, in its order, with p2^-1 w in the H1 table, or None.  The
    reference `decide._factorization` is held to."""
    for p2, factors2 in t2.items():
        rest = inverse_times(p2, word)
        if rest in t1:
            return factors2, t1[rest]
    return None


def two_move_successors(state, closure, max_len):
    """The rewriting moves as two kinds: prepend an inverse closure word to
    a rotation of the state, or replace a prefix rel[:k] == rot[:k] of a
    rotation by the inverse of rel[k:].  The reference that
    `decide._cyclic_moves`, which only inserts closure words, is held
    to."""
    closure_by_first = {}
    for rel in closure:
        closure_by_first.setdefault(rel[0], []).append(rel)
    out = set()
    rotations = [state[i:] + state[:i] for i in range(len(state))] or [()]
    for rot in rotations:
        for rel in closure:
            new = free_reduce(inverse_word(rel) + rot)
            if len(new) <= max_len:
                out.add(cyclic_canonical(new))
        if not rot:
            continue
        for rel in closure_by_first.get(rot[0], ()):
            k = 0
            while k < len(rel) and k < len(rot) and rel[k] == rot[k]:
                k += 1
                new = free_reduce(inverse_word(rel[k:]) + rot[k:])
                if len(new) <= max_len:
                    out.add(cyclic_canonical(new))
    return out
