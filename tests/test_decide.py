import copy
import hashlib
import json
import random
import tracemalloc
from itertools import combinations, product

import pytest

import essedge.decide
from essedge import build_skeleton, parse_triangulation
from essedge.certify import _Analysis
from essedge.presentation import (Presentation, homology,
                                  word_from_string as words,
                                  inverse_word, free_reduce, concat)
from essedge.decide import (Budget, GroupVerdict, decide_word,
                            decide_membership, decide_double_coset,
                            rewrite_search, replay_rewrite_trace,
                            replay_word_verdict,
                            replay_double_coset_verdict, quotient_search,
                            subgroup_closure, _evaluate, abelian_separation,
                            _double_coset_separation)
from essedge.coset import CosetTable, coset_enumeration
from essedge.snf import in_column_span
from essedge.fundamental import presentation_closed, presentation_spine
from essedge.moves import pillow_0_2
from essedge.triangulation import to_table
from test_random_properties import random_closed_triangulation
from conftest import (fixture_text, reference_factorization,
                      two_move_successors)


Z2 = Presentation(1, [words("aa")])
FREE2 = Presentation(2, [])


def test_budget_parsing():
    budget = Budget.parse("coset_nodes=100,quotient_degree=4")
    assert budget.coset_nodes == 100
    assert budget.quotient_degree == 4
    assert budget.rewrite_steps == Budget.DEFAULTS["rewrite_steps"]
    with pytest.raises(ValueError):
        Budget.parse("nonsense=1")
    with pytest.raises(ValueError):
        Budget(coast_nodes=1)


def test_budgets_are_non_negative_ints():
    assert Budget(factor_depth=0).factor_depth == 0
    for bad in ({"coset_nodes": -5}, {"quotient_nodes": -1},
                {"coset_nodes": 1.5}, {"rewrite_steps": "10"},
                {"factor_depth": True}):
        with pytest.raises(ValueError, match="int >= 0"):
            Budget(**bad)
    with pytest.raises(ValueError):
        Budget.parse("coset_nodes=-5,quotient_nodes=-1")


def test_budget_copies_and_pickles():
    import copy
    import pickle
    budget = Budget(coset_nodes=100, quotient_degree=4)
    for clone in (copy.copy(budget), copy.deepcopy(budget),
                  pickle.loads(pickle.dumps(budget))):
        assert clone.to_json() == budget.to_json()
        assert clone.coset_nodes == 100


def test_word_nontrivial_in_z2():
    verdict = decide_word(Z2, words("a"))
    assert verdict.answer == "yes"


def test_word_trivial_in_z2():
    verdict = decide_word(Z2, words("aa"))
    assert verdict.answer == "no"
    assert verdict.certificate["kind"] == "rewriting_trace"
    assert replay_rewrite_trace(Z2, words("aa"),
                                verdict.certificate["trace"])


def test_word_inverse_agreement():
    for pres, word in ((Z2, words("a")), (Z2, words("aa")),
                       (FREE2, words("abAB"))):
        a = decide_word(pres, word)
        b = decide_word(pres, inverse_word(word))
        assert a.answer == b.answer


def test_word_budget_monotone():
    small = Budget(rewrite_steps=50, coset_nodes=50, quotient_nodes=50)
    big = Budget()
    verdict_small = decide_word(Z2, words("aa"), small)
    if verdict_small.answer != "unknown":
        assert verdict_small.answer == decide_word(Z2, words("aa"),
                                                   big).answer


def test_budget_monotone_on_spine_words(m136_skeleton):
    from essedge.fundamental import SpineData
    spine = SpineData(m136_skeleton)
    pres = spine.presentation
    # each budget is at least its predecessor in every key; the middle one
    # reaches degree-4 quotients, so quotient separations are checked too
    ladder = (Budget(coset_nodes=200, rewrite_steps=200, quotient_degree=2,
                     quotient_nodes=200, factor_depth=3, factor_nodes=200),
              Budget(coset_nodes=2000, rewrite_steps=2000, quotient_degree=4,
                     quotient_nodes=20000, factor_depth=4, factor_nodes=800),
              Budget(coset_nodes=4000, rewrite_steps=4000, quotient_degree=4,
                     quotient_nodes=40000, factor_depth=5,
                     factor_nodes=1600))
    kinds = set()

    def monotone(decide, *question):
        verdicts = [decide(pres, *question, b) for b in ladder]
        answers = [v.answer for v in verdicts]
        for k, v in enumerate(verdicts[:-1]):
            if v.answer != "unknown":
                kinds.add(v.certificate["kind"])
                assert answers[k + 1:] == [v.answer] * (len(answers) - k - 1)

    for edge in range(3):
        monotone(decide_word, spine.edge_loop_word(edge))
    for e in m136_skeleton.edge_classes:
        t0, (a, _b) = e.corners[0]
        vertex = spine.vertex_of_end(t0, a)
        monotone(decide_membership, spine.peripheral(vertex).words,
                 spine.edge_loop_word(e.index))
    n = len(m136_skeleton.edge_classes)
    for i in range(n):
        for j in range(i + 1, n):
            for flip in (False, True):
                data = spine.parallel_test_data(i, j, flip)
                if data is not None:
                    word, h2, h1 = data
                    monotone(decide_double_coset, h1, h2, word)
    assert {"abelianization", "quotient_separation"} <= kinds


def test_membership_power_of_generator():
    verdict = decide_membership(FREE2, [words("a")], words("aaa"))
    assert verdict.answer == "yes"
    assert verdict.certificate["kind"] == "factorization"
    assert verdict.certificate["h1_factors"] == [1, 1, 1]
    assert verdict.certificate["h2_factors"] == []


def test_membership_separated_by_abelianisation():
    verdict = decide_membership(FREE2, [words("a")], words("b"))
    assert verdict.answer == "no"
    assert verdict.certificate["kind"] == "abelianization"


def test_membership_coset_table():
    # index 3 subgroup <a> in S3: b is not in it
    s3 = Presentation(2, [words("aa"), words("bb"), words("ababab")])
    verdict = decide_membership(s3, [words("a")], words("b"))
    assert verdict.answer == "no"
    verdict2 = decide_membership(s3, [words("a")], words("abab"))
    # abab = (ab)^-1 in S3, which has order 3; not in <a>
    assert verdict2.answer == "no"
    verdict3 = decide_membership(s3, [words("ab")], words("abab"))
    assert verdict3.answer == "yes"


def test_double_coset_examples():
    assert decide_double_coset(FREE2, [words("a")], [words("b")],
                               words("ba")).answer == "yes"
    verdict = decide_double_coset(FREE2, [words("a")], [words("b")],
                                  words("aba"))
    assert verdict.answer == "no"
    assert decide_double_coset(FREE2, [words("a")], [words("b")],
                               ()).answer == "yes"


def test_double_coset_yes_certificate():
    verdict = decide_double_coset(FREE2, [words("a")], [words("b")],
                                  words("ba"))
    cert = verdict.certificate
    assert cert["kind"] == "factorization"
    assert cert["h2_factors"] == [1] and cert["h1_factors"] == [1]


def test_double_coset_with_finite_index():
    s3 = Presentation(2, [words("aa"), words("bb"), words("ababab")])
    # <a><a> = {e, a}: is b in it?  no
    verdict = decide_double_coset(s3, [words("a")], [words("a")], words("b"))
    assert verdict.answer == "no"
    assert verdict.certificate["kind"] == "coset_table"
    # every element is in <ab><a> since <ab> has index 2
    verdict2 = decide_double_coset(s3, [words("a")], [words("ab")],
                                   words("b"))
    assert verdict2.answer == "yes"
    assert verdict2.certificate["kind"] == "coset_table"
    for v, h2 in ((verdict, "a"), (verdict2, "ab")):
        assert replay_double_coset_verdict(s3, [words("a")], [words(h2)],
                                           words("b"), v)


def test_forged_coset_table_does_not_replay(q8_skeleton):
    """In a one-coset table every generator fixes coset 0.  It is a valid
    action, but its stabiliser is the whole group, so it cannot show a
    word trivial.  Generator 1 of q8 is nontrivial by abelianisation."""
    q8 = presentation_closed(q8_skeleton)
    nontrivial = decide_word(q8, (1,))
    assert nontrivial.answer == "yes"
    assert nontrivial.certificate["kind"] == "abelianization"
    n = q8.generator_count
    forged = {"kind": "coset_table", "swapped": False,
              "table": {"cosets": 1, "generators": n,
                        "table": [[0] * (2 * n)]},
              "h2_inverse_factors": [], "max_cosets": 20000}
    assert not replay_word_verdict(q8, (1,), GroupVerdict("no", forged))


def test_replay_caps_coset_enumeration_by_the_default_budget(monkeypatch):
    """A "yes" coset table is re-enumerated under its own cap only when
    that cap lies within the default `coset_nodes`.  The trivial
    subgroup of F2 never completes, so a forged certificate for it asking
    for 50000 cosets is rejected without enumerating; a genuine one still
    replays."""
    enumerated = []
    enumerate_cosets = essedge.decide.coset_enumeration

    def counted(*args, **kwargs):
        enumerated.append(kwargs["max_cosets"])
        return enumerate_cosets(*args, **kwargs)

    monkeypatch.setattr(essedge.decide, "coset_enumeration", counted)
    forged = {"kind": "coset_table", "swapped": False,
              "table": {"cosets": 1, "generators": 2,
                        "table": [[0, 0, 0, 0]]},
              "h2_inverse_factors": []}
    for cap in (50000, 20001, 0, -1, True, "100", None):
        assert not replay_word_verdict(
            FREE2, words("a"), GroupVerdict("no", dict(forged,
                                                       max_cosets=cap)))
    assert enumerated == []
    s3 = Presentation(2, [words("aa"), words("bb"), words("ababab")])
    h1, h2, w = [words("a")], [words("ab")], words("b")
    for nodes in (20000, 50):
        verdict = decide_double_coset(s3, h1, h2, w, Budget(coset_nodes=nodes))
        assert verdict.certificate["kind"] == "coset_table"
        assert verdict.certificate["max_cosets"] == nodes
        assert replay_double_coset_verdict(s3, h1, h2, w, verdict)


def test_certificates_do_not_alias_shared_searches():
    """A returned certificate belongs to the caller: mutating it leaves
    the tables the presentation shares, so asking the same question again
    gives the original verdict."""
    s3 = Presentation(2, [words("aa"), words("bb"), words("ababab")])
    questions = ((FREE2, [words("a")], [words("b")], words("bba")),
                 (s3, [words("a")], [words("ab")], words("b")))
    for pres, h1, h2, w in questions:
        verdict = decide_double_coset(pres, h1, h2, w)
        original = copy.deepcopy(verdict.to_json())
        for value in verdict.certificate.values():
            if isinstance(value, list):
                value.append(1)
            elif isinstance(value, dict):
                value["table"][0][0] = 99
        assert decide_double_coset(pres, h1, h2, w).to_json() == original
    kinds = {decide_double_coset(*q).certificate["kind"] for q in questions}
    assert kinds == {"factorization", "coset_table"}


def _empty_table_cert(table):
    return {"kind": "coset_table", "swapped": False, "orbit_size": 1,
            "table": table}


@pytest.mark.parametrize("h1, w, answer, cert", [
    ([], (1,), "no",
     _empty_table_cert({"cosets": 0, "generators": 2, "table": []})),
    ([], (1,), "no", _empty_table_cert(
        {"cosets": 1, "generators": 2, "table": [["0", "0", "0", "0"]]})),
    ([], (1,), "no", {"kind": "coset_table", "swapped": False}),
    ([(1,)], (1,), "yes",
     {"kind": "factorization", "h2_factors": [], "h1_factors": [5]}),
    ([], (1,), "yes",
     {"kind": "factorization", "h2_factors": [], "h1_factors": [0]}),
    ([(1,), (2,)], (-2,), "yes",
     {"kind": "factorization", "h2_factors": [], "h1_factors": [0]}),
    ([], (1,), "yes", {"kind": "rewriting_trace"}),
])
def test_malformed_certificates_do_not_replay(h1, w, answer, cert):
    """A certificate whose table, factors or trace is malformed replays as
    False: no error, and factor 0 names no subgroup generator."""
    assert not replay_double_coset_verdict(FREE2, h1, (), w,
                                           GroupVerdict(answer, cert))


def test_swapped_coset_attempt():
    """With H1 trivial in F2 no table for H1 completes, so the table for
    H2, the words of even length, decides the inverse question."""
    h2 = [words("aa"), words("ab"), words("aB")]
    w = words("abAB")
    verdict = decide_double_coset(FREE2, [], h2, w,
                                  Budget(factor_depth=0, coset_nodes=50))
    assert verdict.answer == "yes"
    assert verdict.certificate["kind"] == "coset_table"
    assert verdict.certificate["swapped"] is True
    assert replay_double_coset_verdict(FREE2, [], h2, w, verdict)
    unswapped = GroupVerdict("yes", dict(verdict.certificate, swapped=False))
    assert not replay_double_coset_verdict(FREE2, [], h2, w, unswapped)


def test_quotient_search_finds_s3():
    found, complete = quotient_search(
        FREE2,
        lambda n, images: (n, images) if any(
            p != tuple(range(n)) for p in images) else None,
        Budget(quotient_degree=3))
    assert found is not None


def test_quotient_search_starts_at_s3():
    """S_2 quotients are never enumerated: degree 2 asks the predicate
    nothing, and degree 3 asks it only about S_3."""
    degrees = []

    def record(n, images):
        degrees.append(n)

    found, complete = quotient_search(FREE2, record,
                                      Budget(quotient_degree=2))
    assert (found, complete, degrees) == (None, True, [])
    quotient_search(FREE2, record, Budget(quotient_degree=3))
    assert degrees and set(degrees) == {3}


def _s2_separates(presentation, h1_words, h2_words, word):
    """Whether some homomorphism to S_2 separates the word from H2·H1."""
    identity, swap = (0, 1), (1, 0)
    for images in product((identity, swap),
                          repeat=presentation.generator_count):
        if (all(_evaluate(images, r, 2) == identity
                for r in presentation.relators)
                and _double_coset_separation(2, images, h1_words, h2_words,
                                             word)):
            return True
    return False


def _pair_questions(tri):
    a = _Analysis(tri, None, None, ("group",))
    for i, j in combinations(range(len(a.skeleton.edge_classes)), 2):
        for _flip, word, h1, h2 in a.pair_questions(i, j):
            yield a.presentation, h1, h2, word


def _closed_questions(count):
    """The closed words, memberships and double cosets that the
    certificate replay test asks, over the whole seeded random corpus."""
    rng = random.Random(20260808)
    for _ in range(count):
        pres = presentation_spine(build_skeleton(
            random_closed_triangulation(rng)))
        k = pres.generator_count
        if k == 0:
            continue
        for g in range(min(2, k)):
            yield pres, (), (), (g + 1,)
        target = (2,) if k >= 2 else (1, 1)
        yield pres, [(1,)], (), target
        yield pres, [(1,)], [(k,)], (k, 1, 1) + target


def test_abelianisation_subsumes_s2_quotients(m136):
    """Every double-coset question that abelianisation leaves open, over
    m136's and two pillow outputs' pair questions and the seeded closed
    corpus, has no separating homomorphism to S_2 either."""
    skeleton = build_skeleton(m136)
    trees = [m136] + [pillow_0_2(m136, e, sites, skeleton)[0]
                      for e, sites in ((0, (0, 1)), (2, (0, 2)))]
    questions = [q for tri in trees for q in _pair_questions(tri)]
    questions += list(_closed_questions(100))
    open_questions = [q for q in questions
                      if abelian_separation(*q) is None]
    assert len(open_questions) >= 140
    assert not [q for q in open_questions if _s2_separates(*q)]


def test_certificate_replays():
    # coset-table certificates replay through CosetTable.verify
    s3 = Presentation(2, [words("aa"), words("bb"), words("ababab")])
    verdict = decide_membership(s3, [words("a")], words("b"))
    table = verdict.certificate["table"]
    replay = CosetTable(s3.generator_count, s3.relators,
                        [words("a")], [tuple(r) for r in table["table"]])
    assert replay.verify()
    assert replay.apply(0, words("b")) != 0
    # quotient separations replay by re-evaluating the homomorphism
    verdict2 = decide_double_coset(FREE2, [words("a")], [words("b")],
                                   words("aba"))
    if verdict2.certificate["kind"] == "quotient_separation":
        n = verdict2.certificate["degree"]
        images = [tuple(p) for p in verdict2.certificate["images"]]
        sub1 = subgroup_closure([_evaluate(images, words("a"), n)], n)
        sub2 = subgroup_closure([_evaluate(images, words("b"), n)], n)
        from essedge.decide import _perm_mul
        product = {_perm_mul(a, b) for a in sub2 for b in sub1}
        assert _evaluate(images, words("aba"), n) not in product


def test_unknown_is_a_value():
    tiny = Budget(rewrite_steps=2, coset_nodes=2, quotient_nodes=2,
                  quotient_degree=2, factor_depth=1, factor_nodes=2)
    free_word = decide_word(FREE2, words("abAB"), tiny)
    assert free_word.answer == "unknown"
    assert free_word.certificate["kind"] == "budget_exhausted"


def test_quotient_replay_needs_permutation_images():
    """A quotient separation replays only with one permutation of
    range(degree) per generator: a forged "no" for a member of the double
    coset is refused, and malformed images return False, not an error."""
    h1, h2, w = [(-2,)], [(1, 2)], (1,)
    assert decide_double_coset(FREE2, h1, h2, w).answer == "yes"
    forged = {"kind": "quotient_separation", "degree": 3,
              "images": [[0, 0, 0], [2, 0, 2]]}
    assert not replay_double_coset_verdict(FREE2, h1, h2, w,
                                           GroupVerdict("no", forged))
    z2 = Presentation(2, [words("abAB")])
    for images in ([[1, 0, 2]], [[1, 0, 2], [0, 1]]):
        malformed = {"kind": "quotient_separation", "degree": 3,
                     "images": images}
        assert not replay_double_coset_verdict(
            z2, (), (), words("a"), GroupVerdict("no", malformed))


def test_quotient_replay_caps_the_degree_by_the_default_budget(monkeypatch):
    """A quotient separation replays only up to the default
    `quotient_degree`: in F2 with H1 = H2 = <a, b> every word is a member,
    and forged images (0 1), (0 1 ... n-1) generate S_n, whose closures
    and product set replay would build in n! steps.  Degrees 6 and 7 are
    refused before any closure is built."""
    closures = []

    def closure(images, n):
        closures.append(n)
        return set()

    monkeypatch.setattr(essedge.decide, "subgroup_closure", closure)
    h = [words("a"), words("b")]
    for n in (6, 7):
        images = [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]]
        forged = {"kind": "quotient_separation", "degree": n,
                  "images": images}
        assert not replay_double_coset_verdict(FREE2, h, h, words("a"),
                                               GroupVerdict("no", forged))
    assert closures == []
    assert Budget.DEFAULTS["quotient_degree"] == 5


def test_quotient_search_memory_stays_small():
    """The permutations of each degree are generated level by level, not
    listed up front, so a degree the node budget cuts short costs little
    memory."""
    tracemalloc.start()
    try:
        result = quotient_search(
            Z2, lambda n, images: None,
            Budget(quotient_degree=9, quotient_nodes=50000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (None, False)
    assert peak < 5 * 2 ** 20


def _reference_table(gens, depth, node_budget):
    """The product table as built before junction-only appending: every
    product freely reduced from scratch."""
    table = {(): []}
    frontier = [()]
    nodes = 0
    for _ in range(depth):
        next_frontier = []
        for w in frontier:
            for gi, g in enumerate(gens):
                for sign in (1, -1):
                    nodes += 1
                    if nodes > node_budget:
                        return table
                    new = concat(w, g if sign > 0 else inverse_word(g))
                    if new not in table:
                        table[new] = table[w] + [sign * (gi + 1)]
                        next_frontier.append(new)
        frontier = next_frontier
    return table


def test_factorization_scan_matches_the_unpruned_scan():
    """The product tables, their order included, and the scan's first hit
    and factor lists are those of the unpruned scan: on seeded random
    words, and on constructed hits w = p2·p1, under node budgets that stop
    a table midway too."""
    rng = random.Random(17)

    def word(k):
        return free_reduce(rng.choice((-3, -2, -1, 1, 2, 3))
                           for _ in range(k))

    hits = misses = 0
    for trial in range(120):
        depth, nodes = rng.choice([(2, 40), (3, 300), (4, 150)])
        budget = Budget(factor_depth=depth, factor_nodes=nodes)
        h1 = [word(rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        h2 = [word(rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        t1, lengths1 = essedge.decide._product_table(h1, depth, nodes)
        t2, _ = essedge.decide._product_table(h2, depth, nodes)
        for gens, table in ((h1, t1), (h2, t2)):
            assert (list(table.items())
                    == list(_reference_table(gens, depth, nodes).items()))
        assert lengths1 == {len(w) for w in t1}
        targets = [word(rng.randint(1, 8)) for _ in range(4)]
        targets += [concat(rng.choice(list(t2)), rng.choice(list(t1)))
                    for _ in range(4)]
        presentation = Presentation(3, [])
        for w in filter(None, targets):
            expected = reference_factorization(t1, t2, w)
            assert essedge.decide._factorization(
                presentation, h1, h2, w, budget) == expected
            hits += expected is not None
            misses += expected is None
    assert hits > 300 and misses > 100


def test_factorization_filter_drops_only_words_without_products():
    """The exponent-sum filter drops only words that no product p2·p1
    reaches.  Over seeded random presentations and subgroup words: every
    product of the two product tables, to depth 3, is still found, with
    the unfiltered reference scan's factor lists; on seeded random words
    the result is the reference scan's; and a word builds product tables
    exactly when its exponent vector lies in the span of the subgroups'
    vectors, the relators left out."""
    rng = random.Random(29)
    products = dropped = kept = 0
    for trial in range(60):
        k = rng.randint(1, 4)
        letters = [g for g in range(-k, k + 1) if g]

        def word(n):
            return free_reduce(rng.choice(letters) for _ in range(n))

        relators = [word(rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        presentation = Presentation(k, relators)
        h1 = [word(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
        h2 = [word(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
        nodes = rng.choice((20, 40))
        budget = Budget(factor_depth=3, factor_nodes=nodes)
        t1, _ = essedge.decide._product_table(h1, 3, nodes)
        t2, _ = essedge.decide._product_table(h2, 3, nodes)
        for w in sorted({concat(p2, p1) for p2 in t2 for p1 in t1} - {()}):
            expected = reference_factorization(t1, t2, w)
            assert expected is not None
            assert essedge.decide._factorization(
                presentation, h1, h2, w, budget) == expected
            products += 1
        subgroup_vectors = [presentation.exponent_vector(h) for h in h1 + h2]
        for _ in range(20):
            w = word(rng.randint(1, 8))
            if not w:
                continue
            fresh = Presentation(k, relators)
            found = essedge.decide._factorization(fresh, h1, h2, w, budget)
            assert found == reference_factorization(t1, t2, w)
            tables = any(key[0] == "factor" for key in fresh.built)
            assert tables == in_column_span(subgroup_vectors,
                                            fresh.exponent_vector(w))
            kept += tables
            dropped += not tables
    assert products > 2000 and dropped > 500 and kept > 200


def search_presentations():
    """The presentations the group-search tests run over: the spine
    presentations of m136 and of the first triangulations of the seeded
    random closed corpus, the closed presentations of q8 and of those of
    the corpus with one vertex, and seeded random presentations."""
    m136 = build_skeleton(parse_triangulation(fixture_text("m136.tri")))
    q8 = build_skeleton(parse_triangulation(fixture_text("q8.tri")))
    out = [presentation_spine(m136), presentation_closed(q8)]
    rng = random.Random(20260808)
    for _ in range(12):
        skeleton = build_skeleton(random_closed_triangulation(rng))
        out.append(presentation_spine(skeleton))
        if skeleton.classification == "closed_manifold_1vertex":
            out.append(presentation_closed(skeleton))
    rng = random.Random(7)
    for _ in range(12):
        k = rng.randint(1, 3)
        out.append(Presentation(k, [
            [rng.choice((1, -1)) * rng.randint(1, k)
             for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 3))]))
    return out


def seeded_words(presentation, rng, count=3):
    """Seeded words: mostly products of one or two relator conjugates,
    which are trivial, and otherwise random words."""
    n, relators = presentation.generator_count, presentation.relators

    def letters(k):
        return [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(k)]

    out = []
    for _ in range(count):
        if not any(relators) or rng.random() < 0.4:
            out.append(free_reduce(letters(rng.randint(1, 5))))
            continue
        w = ()
        for _ in range(rng.randint(1, 2)):
            c, r = free_reduce(letters(rng.randint(0, 2))), rng.choice(relators)
            if rng.random() < 0.5:
                r = inverse_word(r)
            w = concat(w, c, r, inverse_word(c))
        out.append(w)
    return out


def test_relator_insertions_are_the_two_kinds_of_move(monkeypatch):
    """Inserting relator conjugates gives the same successors as the two
    kinds of move, inverse-relator insertion and replacing a relator
    prefix by the inverse of the rest, on the states that seeded searches
    expand: the backward ball and the forward states of seeded words."""
    moves = essedge.decide._cyclic_moves
    expanded = []

    def recorded(state, closure, max_len):
        expanded.append((state, closure, max_len))
        return moves(state, closure, max_len)

    monkeypatch.setattr(essedge.decide, "_cyclic_moves", recorded)
    rng = random.Random(23)
    budget = Budget(rewrite_steps=40)
    for presentation in search_presentations():
        for w in seeded_words(presentation, rng):
            rewrite_search(presentation, w, budget)
    sample = random.Random(29).sample(expanded, 800)
    assert sum(len(state) > 4 for state, _c, _l in sample) > 300
    for state, closure, max_len in sample:
        assert (moves(state, closure, max_len)
                == two_move_successors(state, closure, max_len))


# sha256 of the rewriting traces of `rewrite_traces`, as the search with
# the two kinds of move found them
REWRITE_TRACES_DIGEST = (
    "03ba8cd79b0ab0843fa1589aa1d641eb74af60ce10e847ae03f7332fa401fb10")


def rewrite_traces():
    rng = random.Random(11)
    budget = Budget(rewrite_steps=150, rewrite_slack=6)
    return [(presentation, w, rewrite_search(presentation, w, budget))
            for presentation in search_presentations()
            for w in seeded_words(presentation, rng)]


def test_rewrite_traces_match_the_recorded_digest():
    found = 0
    traces = []
    for presentation, w, trace in rewrite_traces():
        if trace is not None:
            trace = [list(state) for state in trace]
            assert replay_rewrite_trace(presentation, w, trace)
            found += 1
        traces.append(trace)
    assert found > 50 and len(traces) - found > 10
    digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()
    assert digest == REWRITE_TRACES_DIGEST


# random_closed_triangulation(random.Random(494), 4): one vertex, H1 = Z
INFINITE_PI1 = """tets: 2
0: 0 (231) | 1 (213) | 1 (203) | 0 (201)
1: 1 (130) | 1 (201) | 0 (203) | 0 (103)
"""


def test_closed_input_with_infinite_fundamental_group():
    """pi_1 is infinite, so no coset table of the trivial subgroup
    completes, and rewriting alone shows a word trivial."""
    tri = parse_triangulation(INFINITE_PI1)
    assert to_table(random_closed_triangulation(random.Random(494), 4)) \
        == INFINITE_PI1
    skeleton = build_skeleton(tri)
    assert skeleton.classification == "closed_manifold_1vertex"
    presentation = presentation_closed(skeleton)
    assert homology(presentation) == (0,)
    assert coset_enumeration(presentation, (), max_cosets=500) is None
    r1, r2 = presentation.relators[:2]
    word = concat((2,), r1, (-2,), (1, 3), r2, (-3, -1))
    assert word
    verdict = decide_word(presentation, word)
    assert verdict.answer == "no"
    assert verdict.certificate["kind"] == "rewriting_trace"
    assert replay_word_verdict(presentation, word, verdict)
    assert replay_rewrite_trace(presentation, word,
                                verdict.certificate["trace"])
