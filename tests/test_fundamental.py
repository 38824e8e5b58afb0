from itertools import product

import pytest

from essedge import Triangulation, build_skeleton
from essedge.skeleton import LinkStructure
from essedge.fundamental import (SpineData, presentation_closed,
                                 presentation_spine, peripheral_words)
from essedge.presentation import (homology, word_image, concat, inverse_word,
                                  cyclic_reduce)
from essedge.decide import decide_word

from conftest import primal_h1, dual_h1
from test_random_properties import _pillow_outputs


def test_q8_presentation_counts(q8_skeleton):
    pres = presentation_closed(q8_skeleton)
    assert pres.generator_count == 3
    assert len(pres.relators) == 4
    assert homology(pres) == (2, 2)


def test_closed_presentation_matches_chain_complex(q8_skeleton):
    pres = presentation_closed(q8_skeleton)
    assert homology(pres) == primal_h1(q8_skeleton)


def test_generator_orientation_flip_preserves_homology(q8_skeleton):
    from essedge.presentation import Presentation
    pres = presentation_closed(q8_skeleton)
    # reverse the orientation of generator 1: invert its letters
    flipped = Presentation(pres.generator_count,
                           [tuple(-x if abs(x) == 1 else x for x in r)
                            for r in pres.relators])
    assert homology(flipped) == homology(pres)


def test_presentation_closed_requires_one_vertex(fig8):
    # the figure-8 pseudo-manifold has a torus link, hence is closed as a
    # pseudo-manifold; edge-generator presentations still apply
    pres = presentation_closed(fig8)
    assert pres.generator_count == 2
    # boundary-mode input is rejected
    with pytest.raises(ValueError):
        presentation_closed(Triangulation(1, [[None] * 4]))


def test_spine_counts(fig8_skeleton, m136_skeleton):
    pres8 = presentation_spine(fig8_skeleton)
    assert pres8.generator_count == 3
    assert len(pres8.relators) == 2
    presm = presentation_spine(m136_skeleton)
    assert presm.generator_count == 14 - 6 == 8
    assert len(presm.relators) == 7


def test_spine_homology_against_chain_complex(fig8_skeleton, m136_skeleton,
                                              q8_skeleton):
    for skeleton in (fig8_skeleton, m136_skeleton, q8_skeleton):
        assert homology(presentation_spine(skeleton)) == dual_h1(skeleton)


def test_closed_and_spine_presentations_agree(q8_skeleton):
    assert homology(presentation_closed(q8_skeleton)) == homology(
        presentation_spine(q8_skeleton))


def test_fig8_homology_is_z(fig8_skeleton):
    assert homology(presentation_spine(fig8_skeleton)) == (0,)


def test_rotation_loops_read_edge_relators(fig8, m136):
    """Going once around a link corner crosses exactly the faces around
    the corresponding edge, so the crossing word is the edge relator up to
    rotation and inversion: on every torus link of fig8, m136 and the 123
    pillow outputs of m136.  The peripheral relations read one such loop
    off each edge class."""
    pillows = list(_pillow_outputs(m136))
    assert len(pillows) == 123
    for tri in [fig8, m136] + pillows:
        skeleton = build_skeleton(tri)
        spine = SpineData(skeleton)
        for link in skeleton.vertex_links:
            if link.surface_kind == "torus":
                _check_rotation_loops(skeleton, spine, link.structure)


def _check_rotation_loops(skeleton, spine, structure):
    for (t, v) in structure.triangles:
        for w in range(4):
            if w == v:
                continue
            crossings = []
            sides = [f for f in range(4) if f not in (v, w)]
            cur = (t, v, w, min(sides))
            while True:
                tt, vv, ww, out = cur
                key = ((tt, vv), out)
                crossings.append(key)
                tv2, f2, sigma = structure.side_gluing[key]
                w2 = sigma(ww)
                out2 = [f for f in range(4)
                        if f not in (tv2[1], w2, f2)][0]
                cur = (tv2[0], tv2[1], w2, out2)
                if (cur[0], cur[1], cur[2], cur[3]) == (
                        t, v, w, min(sides)):
                    break
            word = spine.crossing_word(crossings)
            e, _ = skeleton.edge_lookup[(t, min(v, w), max(v, w))]
            relator = cyclic_reduce(spine.presentation.relators[e])
            variants = set()
            for base in (relator, inverse_word(relator)):
                for i in range(max(1, len(base))):
                    variants.add(base[i:] + base[:i])
            assert cyclic_reduce(word) in variants


@pytest.mark.parametrize("fixture", ["fig8_skeleton", "m136_skeleton"])
def test_peripheral_words_commute(fixture, request):
    skeleton = request.getfixturevalue(fixture)
    spine = SpineData(skeleton)
    m, l = spine.peripheral(0).words
    commutator = concat(m, l, inverse_word(m), inverse_word(l))
    verdict = decide_word(spine.presentation, commutator)
    assert verdict.answer == "no"


def test_peripheral_words_homology_independent(fig8_skeleton):
    spine = SpineData(fig8_skeleton)
    m, l = spine.peripheral(0).words
    im_m = word_image(spine.presentation, m)
    im_l = word_image(spine.presentation, l)
    # the two words generate H1 of the cusp torus; in the figure-8
    # complement H1 = Z is carried by the meridian
    assert any(im_m) or any(im_l)


def test_peripheral_rejects_sphere_link(q8_skeleton):
    with pytest.raises(ValueError):
        peripheral_words(q8_skeleton, 0)


def test_edge_loop_words(m136_skeleton):
    spine = SpineData(m136_skeleton)
    for e in m136_skeleton.edge_classes:
        word = spine.edge_loop_word(e.index)
        assert isinstance(word, tuple)


def test_parallel_test_data_shape(m136_skeleton):
    spine = SpineData(m136_skeleton)
    data = spine.parallel_test_data(0, 1, False)
    assert data is not None
    word, h2, h1 = data
    assert len(h1) == 2 and len(h2) == 2


def _path_word(spine, tv):
    """The word of the link-tree path from the basepoint of tv's link to
    corner triangle tv, walked afresh."""
    skeleton = spine.skeleton
    structure = skeleton.vertex_links[skeleton.vertex_of[tv]].structure
    return spine.crossing_word(structure.path_crossings(tv))


def _conjugated(spine, vertex, conjugator):
    inv = inverse_word(conjugator)
    return [concat(inv, w, conjugator) for w in spine.peripheral(vertex).words]


def test_end_records_match_link_tree_walks(m136, fig8):
    """Over fig8, m136 and the 123 pillow outputs of m136, the edge loops
    and the parallel-test instances read off the end records equal those
    built from link-tree paths walked for each question."""
    for tri in [fig8, m136] + list(_pillow_outputs(m136)):
        spine = SpineData(build_skeleton(tri))
        vertex_of = spine.skeleton.vertex_of
        edges = spine.skeleton.edge_classes
        for e in edges:
            t, (a, b) = e.corners[0]
            if vertex_of[(t, a)] != vertex_of[(t, b)]:
                with pytest.raises(ValueError):
                    spine.edge_loop_word(e.index)
                continue
            assert spine.edge_loop_word(e.index) == concat(
                _path_word(spine, (t, a)),
                inverse_word(_path_word(spine, (t, b))))
        for e, f, flip in product(edges, edges, (False, True)):
            t0, (a0, b0) = e.corners[0]
            t1, (af, bf) = f.corners[0]
            xa, xb = (t0, a0), (t0, b0)
            ya, yb = ((t1, af), (t1, bf)) if flip else ((t1, bf), (t1, af))
            data = spine.parallel_test_data(e.index, f.index, flip)
            if (vertex_of[ya] != vertex_of[xb]
                    or vertex_of[yb] != vertex_of[xa]):
                assert data is None
                continue
            word, h2, h1 = data
            assert word == concat(
                inverse_word(_path_word(spine, xb)), _path_word(spine, ya),
                inverse_word(_path_word(spine, yb)), _path_word(spine, xa))
            assert list(h2) == _conjugated(spine, vertex_of[xb],
                                           _path_word(spine, xb))
            assert list(h1) == _conjugated(spine, vertex_of[xa],
                                           _path_word(spine, xa))


def test_pair_questions_walk_no_link_tree_path(m136_skeleton, monkeypatch):
    """Once the end records and the peripheral pair exist, every
    parallel-test instance is read off them."""
    spine = SpineData(m136_skeleton)
    spine.ends, spine.peripheral(0)

    def walked(self, tv):
        raise AssertionError("walked a link-tree path to %r" % (tv,))

    monkeypatch.setattr(LinkStructure, "path_crossings", walked)
    count = m136_skeleton.edge_count
    for i, j, flip in product(range(count), range(count), (False, True)):
        assert spine.parallel_test_data(i, j, flip) is not None
        spine.edge_loop_word(i)


def test_parallel_word_invariance_under_connector_choice(m136_skeleton):
    """The double-coset membership of the constructed loop does not depend
    on the boundary connectors: changing them multiplies the word by
    peripheral elements on the appropriate sides."""
    spine = SpineData(m136_skeleton)
    pres = spine.presentation
    word, h2, h1 = spine.parallel_test_data(0, 1, False)
    from essedge.decide import decide_double_coset, Budget
    budget = Budget(coset_nodes=2000, quotient_degree=3,
                    rewrite_steps=2000)
    base = decide_double_coset(pres, h1, h2, word, budget)
    # perturb rho2 by a peripheral element of H2 and rho1 by one of H1
    perturbed = concat(h2[0], word, h1[1])
    other = decide_double_coset(pres, h1, h2, perturbed, budget)
    definite = {a for a in (base.answer, other.answer) if a != "unknown"}
    assert len(definite) <= 1


@pytest.mark.parametrize("extra", [(1,), (2,)])
def test_peripheral_needs_link_homology_free_of_rank_two(
        monkeypatch, m136_skeleton, extra):
    """The peripheral pair is read in the cokernel of the link's corner
    rotation rows, which must be Z^2.  One more relation on the first
    cotree cycle, which generates a summand of it, leaves Z (rank 1) or
    Z + Z/2 (torsion), and both are rejected."""
    import essedge.fundamental
    cokernel = essedge.fundamental.cokernel

    def with_extra_row(rows, c):
        return cokernel(rows + [list(extra) + [0] * (c - 1)], c)

    assert SpineData(m136_skeleton).peripheral(0).words
    monkeypatch.setattr(essedge.fundamental, "cokernel", with_extra_row)
    with pytest.raises(ValueError):
        SpineData(m136_skeleton).peripheral(0)
