import random

from essedge.presentation import (Presentation, free_reduce, inverse_word,
                                  concat, cyclic_reduce, word_from_string,
                                  word_to_string, homology, word_image,
                                  simplify_presentation)
from conftest import inverse_times


def test_free_reduction():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert inverse_word((1, 2)) == (-2, -1)
    assert concat((1, 2), (-2, 3)) == (1, 3)
    assert cyclic_reduce((1, 2, -1)) == (2,)


def test_inverse_times_cancels_only_at_the_junction():
    """u^-1 w for freely reduced words equals the full free reduction: over
    random words sharing a random prefix, an empty u, a w that is a prefix
    of u, and u = w, where everything cancels."""
    rng = random.Random(3)

    def word(k):
        return free_reduce(rng.choice((-3, -2, -1, 1, 2, 3))
                           for _ in range(k))

    cases = [((), ()), ((), (1, -2)), ((1, 2, 3), (1, 2)),
             ((1, 2), (1, 2)), ((2, -1), (2, -1, 3)), ((1,), (-1,))]
    for _ in range(500):
        prefix = word(rng.randint(0, 4))
        u = free_reduce(prefix + word(rng.randint(0, 6)))
        w = free_reduce(prefix + word(rng.randint(0, 6)))
        cases += [(u, w), (u, u), (u, u[:rng.randint(0, len(u))]), ((), w)]
    for u, w in cases:
        assert inverse_times(u, w) == concat(inverse_word(u), w)
    assert inverse_times((1, 2), (1, 2)) == ()


def test_word_strings():
    assert word_from_string("abA") == (1, 2, -1)
    assert word_to_string((1, 2, -1)) == "abA"
    assert word_to_string(()) == "1"


def test_eliminate_length_two():
    pres = Presentation(2, [word_from_string("ab"), ()])
    simple = simplify_presentation(pres)
    assert simple.generator_count == 1
    assert simple.relators == ()


def test_simplify_preserves_homology(fig8_skeleton):
    from essedge.fundamental import presentation_spine
    pres = presentation_spine(fig8_skeleton)
    simple = simplify_presentation(pres)
    assert simple.generator_count <= 2
    assert homology(simple) == homology(pres) == (0,)


def test_simplify_idempotent(fig8_skeleton, q8_skeleton):
    from essedge.fundamental import presentation_spine, presentation_closed
    for pres in (presentation_spine(fig8_skeleton),
                 presentation_closed(q8_skeleton),
                 Presentation(2, [word_from_string("ab")])):
        once = simplify_presentation(pres)
        twice = simplify_presentation(once)
        assert once.generator_count == twice.generator_count
        assert once.relators == twice.relators


def test_homology_examples():
    pres = Presentation(2, [(1, 1), ()])
    assert homology(pres) == (2, 0)


def test_word_image():
    pres = Presentation(1, [(1, 1)])
    assert any(word_image(pres, (1,)))
    assert not any(word_image(pres, (1, 1)))
