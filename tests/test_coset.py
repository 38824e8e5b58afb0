import random

from essedge.presentation import (Presentation, free_reduce,
                                  word_from_string as words)
from essedge.coset import _Enumerator, coset_enumeration
from essedge.fundamental import presentation_closed
from test_decide import search_presentations


def test_cyclic_two():
    pres = Presentation(1, [words("aa")])
    table = coset_enumeration(pres)
    assert table.coset_count == 2
    assert table.verify()
    assert table.apply(0, (1,)) != 0
    assert table.apply(0, (1, 1)) == 0


def test_s3():
    pres = Presentation(2, [words("aa"), words("bb"), words("ababab")])
    table = coset_enumeration(pres)
    assert table.coset_count == 6
    sub = coset_enumeration(pres, [words("a")])
    assert sub.coset_count == 3
    assert sub.apply(0, words("a")) == 0


def test_quaternion_presentation():
    pres = Presentation(2, [words("aaaa"), words("aaBB"), words("baBa")])
    table = coset_enumeration(pres)
    assert table.coset_count == 8


def test_budget_exhaustion():
    free = Presentation(2, [])
    assert coset_enumeration(free, max_cosets=300) is None


def test_q8_fixture_eight_cosets(q8_skeleton):
    pres = presentation_closed(q8_skeleton)
    table = coset_enumeration(pres, max_cosets=200)
    assert table is not None
    assert table.coset_count == 8
    assert table.verify()
    # unique element of order 2 distinguishes Q8 among order-8 groups
    from math import lcm
    order2 = 0
    for word in table.coset_words():
        perm = [table.apply(c, word) for c in range(8)]
        seen = [False] * 8
        order = 1
        for i in range(8):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                order = lcm(order, length)
        if order == 2:
            order2 += 1
    assert order2 == 1


def test_coset_words_cover(q8_skeleton):
    pres = presentation_closed(q8_skeleton)
    table = coset_enumeration(pres)
    cosets = {table.apply(0, w) for w in table.coset_words()}
    assert cosets == set(range(table.coset_count))


def _scan_pass(enum):
    """One more HLT pass over a finished enumeration: close every live
    coset's relator cycles and fill its row."""
    c = 0
    while c < len(enum.labels):
        if enum.rep(c) == c:
            for rel in enum.relators:
                enum.unify(enum.follow(c, rel), c)
            for col in range(2 * enum.ngens):
                enum.step(c, col)
        c += 1


def test_one_hlt_pass_completes_the_table():
    """After a completed enumeration a second scan pass defines and merges
    nothing, so the one pass gives the table a scan to a fixpoint gives:
    for the trivial subgroup and seeded cyclic ones, under several caps."""
    rng = random.Random(5)
    completed = incomplete = 0
    for presentation in search_presentations():
        n = presentation.generator_count
        subgroups = [[]] + [
            [free_reduce([rng.choice((1, -1)) * rng.randint(1, n)
                          for _ in range(rng.randint(1, 3))])]
            for _ in range(2)]
        for subgroup in subgroups:
            for cap in (50, 400, 3000):
                enum = _Enumerator(n, presentation.relators, subgroup, cap)
                if enum.run() is None:
                    incomplete += 1
                    continue
                activity = enum.defined, enum.merges
                _scan_pass(enum)
                assert (enum.defined, enum.merges) == activity
                completed += 1
    assert completed > 100 and incomplete > 20
