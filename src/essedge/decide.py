"""
One budgeted semi-decision procedure for double-coset membership in finite
presentations: does a word w lie in H2·H1 for finitely generated subgroups
H1, H2?  Word triviality is the question w ∈ 1·1 (`decide_word` answers
"is w nontrivial?", the negation) and subgroup membership is w ∈ 1·H.

The cascade, first conclusive step wins: the empty word is a member;
abelianisation; bounded factorisation w = p2·p1, tried only when w's
exponent sums allow one; a rewriting search to the empty word (only when
both subgroups are trivial); a completed coset table for H1 (or for H2
with the inverse word); separation in a finite quotient.
A rewriting move inserts a relator conjugate into a cyclic word; as free
reduction cancels the common prefix, that covers replacing a prefix of a
cyclic relator by the inverse of the rest.

Every verdict is three-valued.  A yes or no carries a certificate that
`replay_double_coset_verdict` checks independently; its "kind" is one of

* "factorization" (yes): signed factor lists "h2_factors", "h1_factors"
  whose product freely reduces to w; both empty for the empty word;
* "abelianization" (no): "image", the exponent vector of w, lies outside
  the integer span of the subgroups' and relators' exponent vectors;
* "rewriting_trace" (yes): "trace", cyclic words from w to the empty word;
* "coset_table" (either): a completed, verifiable "table" for H1 (or for
  H2 when "swapped"), with "h2_inverse_factors" and the cap "max_cosets"
  the enumeration completed under for a yes, and the size of the tested
  orbit "orbit_size" for a no;
* "quotient_separation" (no): a homomorphism to S_"degree" given by
  generator "images" that separates w from the image of H2·H1.  The
  search starts at S_3: S_2 is abelian, so a homomorphism to it factors
  through the abelianisation, whose step has already failed to separate.

Unknown carries "budget_exhausted" and the budget.  All searches are
deterministic and ordered, so a definite verdict at some budget is
returned unchanged at any larger budget.

The searches are shared per presentation: each exponent lattice (the
echelon basis of the span of some words' exponent vectors, with or
without the relator rows), keyed by the set of its vectors, so that
conjugate subgroups share one, each coset attempt, keyed by its subgroup
words and cap (a failed one too), and each factorisation product table,
keyed by its words, depth and node budget, with the set of product
lengths that the scan prunes by, is built once, on first use, into the
presentation's `built` store and read from there by every later
question.  Since all are deterministic, sharing changes no verdict or
certificate.  Replay never reads the store: it enumerates afresh.  A
certificate cannot set how long its replay runs: a "yes" coset table's
cap must lie within the default `coset_nodes`, and a quotient
separation's degree within the default `quotient_degree`, since replay
builds both subgroup images in S_degree and their whole product set.
"""
import heapq
from itertools import permutations

from .presentation import free_reduce, inverse_word, concat, cyclic_reduce
from .snf import in_column_span, lattice_echelon, lattice_remainder
from .coset import coset_enumeration


class Budget:
    """Search budgets, ints >= 0; unknown keys are rejected to keep CLI
    specs honest."""

    DEFAULTS = {
        "coset_nodes": 20000,
        "rewrite_steps": 20000,
        "rewrite_slack": 8,
        "quotient_degree": 5,
        "quotient_nodes": 100000,
        "factor_depth": 6,
        "factor_nodes": 5000,
    }

    def __init__(self, **kwargs):
        for key, value in kwargs.items():
            if key not in self.DEFAULTS:
                raise ValueError("unknown budget key %r" % key)
            if type(value) is not int or value < 0:
                raise ValueError("budget %s must be an int >= 0, not %r"
                                 % (key, value))
        vars(self).update(self.DEFAULTS, **kwargs)

    @classmethod
    def parse(cls, spec):
        """Parse "key=value,key=value" budget specs."""
        kwargs = {}
        if spec:
            for part in spec.split(","):
                key, _, value = part.partition("=")
                if not _:
                    raise ValueError("bad budget entry %r" % part)
                kwargs[key.strip()] = int(value)
        return cls(**kwargs)

    def to_json(self):
        return {key: getattr(self, key) for key in self.DEFAULTS}


class GroupVerdict:
    def __init__(self, answer, certificate):
        self.answer = answer
        self.certificate = certificate

    def __repr__(self):
        return "GroupVerdict(%s, %s)" % (self.answer,
                                         self.certificate.get("kind"))

    def to_json(self):
        return {"answer": self.answer, "certificate": self.certificate}


def _relator_closure(presentation):
    """All cyclic permutations of the cyclically reduced relators and their
    inverses, empty relators dropped, sorted.  The set is closed under
    inversion."""
    closure = set()
    for r in presentation.relators:
        r = cyclic_reduce(r)
        if not r:
            continue
        for base in (r, inverse_word(r)):
            for i in range(len(base)):
                closure.add(base[i:] + base[:i])
    return sorted(closure)


def cyclic_canonical(word):
    """Canonical representative of a word up to conjugation and inversion:
    the lex-least rotation of the cyclic reduction or of its inverse.
    Triviality only depends on this class."""
    w = cyclic_reduce(word)
    if not w:
        return ()
    best = None
    for base in (w, inverse_word(w)):
        for i in range(len(base)):
            rot = base[i:] + base[:i]
            if best is None or rot < best:
                best = rot
    return best


def _cyclic_moves(state, closure, max_len):
    """Successor canonical states: insert a relator conjugate, that is,
    prepend a closure word to some rotation of the state.  This covers
    replacing a prefix u of a cyclic relator conjugate u·v, read at any
    rotation, by v⁻¹: that is the insertion of (u·v)⁻¹, whose free
    reduction against the rotation cancels the same u."""
    out = set()
    rotations = [state[i:] + state[:i] for i in range(len(state))] or [()]
    for rot in rotations:
        for rel in closure:
            new = free_reduce(rel + rot)
            if len(new) <= max_len:
                out.add(cyclic_canonical(new))
    return out


def rewrite_search(presentation, word, budget):
    """
    Search for a rewriting trace from the word to the empty word, working
    on canonical cyclic words (triviality is conjugation-invariant, and
    canonical forms quotient out inversion, so the search for a word and
    its inverse is identical).  Bidirectional: a ball of short trivial
    words is grown from the empty word first, then a best-first search by
    length runs from the given word until it meets the ball.

    Returns the trace as a list of canonical cyclic words ending in (),
    or None when the node budget or length cap is exhausted.
    """
    closure = _relator_closure(presentation)
    start = cyclic_canonical(word)
    if not start:
        return [()]
    max_len = len(start) + budget.rewrite_slack

    # backward ball around the empty word
    back_parent = {(): None}
    back_budget = budget.rewrite_steps // 4
    back_len = max((len(r) for r in closure),
                   default=0) + budget.rewrite_slack // 2
    frontier = [()]
    expanded = 0
    for _depth in range(3):
        nxt = []
        for s in sorted(frontier):
            expanded += 1
            if expanded > back_budget:
                break
            for t in sorted(_cyclic_moves(s, closure, back_len)):
                if t not in back_parent:
                    back_parent[t] = s
                    nxt.append(t)
        if expanded > back_budget:
            break
        frontier = nxt

    def back_trace(state):
        trace = []
        while state is not None:
            trace.append(state)
            state = back_parent[state]
        return trace

    if start in back_parent:
        return back_trace(start)

    parent = {start: None}
    heap = [(len(start), start)]
    expanded = 0
    while heap:
        _, s = heapq.heappop(heap)
        expanded += 1
        if expanded > budget.rewrite_steps:
            return None
        for t in sorted(_cyclic_moves(s, closure, max_len)):
            if t in parent:
                continue
            parent[t] = s
            if t in back_parent:
                forward = []
                cur = t
                while cur is not None:
                    forward.append(cur)
                    cur = parent[cur]
                forward.reverse()
                return forward + back_trace(back_parent[t])
            heapq.heappush(heap, (len(t), t))
    return None


def replay_rewrite_trace(presentation, word, trace):
    """Replay a triviality certificate: the trace starts at the word's
    canonical cyclic form, every step is a legal move in one direction or
    the other (the move relation is symmetric), and it ends empty."""
    if not (isinstance(trace, list) and all(_ints(w, bool) for w in trace)):
        return False
    if not trace:
        return not cyclic_canonical(word)
    trace = [tuple(w) for w in trace]
    if trace[0] != cyclic_canonical(word) or trace[-1] != ():
        return False
    closure = _relator_closure(presentation)
    longest = max((len(r) for r in closure), default=0)
    for before, after in zip(trace, trace[1:]):
        before, after = cyclic_canonical(before), cyclic_canonical(after)
        limit = max(len(before), len(after)) + longest
        if not (after in _cyclic_moves(before, closure, limit)
                or before in _cyclic_moves(after, closure, limit)):
            return False
    return True


# ---- finite quotients ----

def _perm_mul(p, q):
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _evaluate(images, word, n):
    result = tuple(range(n))
    for x in word:
        p = images[abs(x) - 1]
        result = _perm_mul(result, p if x > 0 else _perm_inv(p))
    return result


def quotient_search(presentation, predicate, budget):
    """
    Enumerate homomorphisms to symmetric groups S_n, 3 <= n up to the
    budgeted degree, by backtracking over generator images in
    lexicographic order; relators are checked as soon as their support is
    assigned.  S_2 is skipped: it is abelian, so what it separates the
    abelianisation separates too.  The first homomorphism satisfying the
    predicate is returned as (n, images), along with a flag telling
    whether the search ran to completion.
    """
    k = presentation.generator_count
    nodes = 0
    relators_by_support = [[] for _ in range(k + 1)]
    for r in presentation.relators:
        top = max((abs(x) for x in r), default=0)
        relators_by_support[top].append(r)
    for n in range(3, budget.quotient_degree + 1):
        images = [None] * k
        identity = tuple(range(n))

        def assign(g):
            nonlocal nodes
            if g == k:
                return predicate(n, tuple(images))
            for p in permutations(range(n)):  # lexicographic, lazily
                nodes += 1
                if nodes > budget.quotient_nodes:
                    raise _BudgetExhausted
                images[g] = p
                ok = all(_evaluate(images, r, n) == identity
                         for r in relators_by_support[g + 1])
                if ok:
                    result = assign(g + 1)
                    if result:
                        return result
            images[g] = None
            return None

        if k == 0:
            continue
        try:
            found = assign(0)
        except _BudgetExhausted:
            return None, False
        if found:
            return found, True
    return None, True


class _BudgetExhausted(Exception):
    pass


def subgroup_closure(images, n):
    """All elements generated by the given permutations."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    gens = list(images) + [_perm_inv(p) for p in images]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _perm_mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


# ---- factorisation search ----

def _product_table(gens, depth, node_budget):
    """Freely reduced products of the freely reduced generators, BFS by
    factor count: (word -> factor list, in a deterministic order, and the
    set of word lengths).  Appending a factor cancels only at the
    junction."""
    pieces = [(sign * (gi + 1), g if sign > 0 else inverse_word(g))
              for gi, g in enumerate(gens) for sign in (1, -1)]
    table = {(): []}
    frontier = [()]
    nodes = 0
    for _ in range(depth):
        next_frontier = []
        for w in frontier:
            for factor, piece in pieces:
                nodes += 1
                if nodes > node_budget:
                    return table, {len(w) for w in table}
                k, m = 0, min(len(w), len(piece))
                while k < m and w[-1 - k] == -piece[k]:
                    k += 1
                new = w[:len(w) - k] + piece[k:]
                if new not in table:
                    table[new] = table[w] + [factor]
                    next_frontier.append(new)
        frontier = next_frontier
    return table, {len(w) for w in table}


# ---- the decider ----

_NEGATION = {"yes": "no", "no": "yes", "unknown": "unknown"}


def _negated(verdict):
    return GroupVerdict(_NEGATION[verdict.answer], verdict.certificate)


def decide_word(presentation, word, budget=None):
    """Is the word nontrivial in the presented group?  That is, is it
    outside the double coset 1·1?"""
    return _negated(decide_double_coset(presentation, (), (), word, budget))


def decide_membership(presentation, subgroup_words, word, budget=None):
    """Does the word lie in the subgroup generated by the given words, that
    is, in the double coset 1·H?"""
    return decide_double_coset(presentation, subgroup_words, (), word, budget)


def exponent_lattice(presentation, words, relators=True):
    """The echelon basis (`snf.lattice_echelon`) of the span of the words'
    exponent vectors, and of the relators' unless `relators` is False,
    built once per presentation and set of vectors.  Conjugating a word
    does not change its exponent vector, so conjugate subgroups share a
    lattice."""
    vectors = sorted({tuple(presentation.exponent_vector(w)) for w in words})
    return _built(presentation, ("lattice", tuple(vectors), relators),
                  lambda: lattice_echelon(
                      vectors + (presentation.relator_matrix() if relators
                                 else []),
                      presentation.generator_count))


def abelian_separation(presentation, h1_words, h2_words, word):
    """The decider's abelianisation step, which also runs on its own: a "no"
    verdict when the word's exponent vector lies outside the integer span
    of the subgroups' and relators' exponent vectors, else None."""
    image = presentation.exponent_vector(word)
    if not any(lattice_remainder(
            exponent_lattice(presentation, [*h1_words, *h2_words]), image)):
        return None
    return GroupVerdict("no", {"kind": "abelianization", "image": image})


def _product(words, factors):
    """The freely reduced product of the words named by signed 1-based
    factors, or None unless each factor is a nonzero int naming a word."""
    if not _ints(factors, lambda f: 0 < abs(f) <= len(words)):
        return None
    out = ()
    for f in factors:
        h = words[abs(f) - 1]
        out = concat(out, h if f > 0 else inverse_word(h))
    return out


def _orbit(table, words):
    """The orbit of coset 0 under the subgroup generated by the words, in
    breadth-first order: coset -> signed factors of a word x with
    (H x) = that coset."""
    orbit = {0: ()}
    frontier = [0]
    while frontier:
        c = frontier.pop(0)
        for gi, h in enumerate(words):
            for sign in (1, -1):
                d = table.apply(c, h if sign > 0 else inverse_word(h))
                if d not in orbit:
                    orbit[d] = orbit[c] + (sign * (gi + 1),)
                    frontier.append(d)
    return orbit


def _built(presentation, key, build):
    """What `build()` returns, built once per presentation and key."""
    if key not in presentation.built:
        presentation.built[key] = build()
    return presentation.built[key]


def decide_double_coset(presentation, h1_words, h2_words, word, budget=None):
    """Does the word lie in the double coset H2·H1?  The one group decider:
    triviality and subgroup membership are the cases 1·1 and 1·H."""
    budget = budget or Budget()
    word = free_reduce(word)
    h1_words = [free_reduce(h) for h in h1_words]
    h2_words = [free_reduce(h) for h in h2_words]
    if not word:
        return GroupVerdict("yes", {"kind": "factorization",
                                    "h2_factors": [], "h1_factors": []})
    separated = abelian_separation(presentation, h1_words, h2_words, word)
    if separated is not None:
        return separated
    # bounded literal factorisation: w = p2 * p1 after free reduction; the
    # factor lists are copied, as the tables are shared
    found = _factorization(presentation, h1_words, h2_words, word, budget)
    if found is not None:
        factors2, factors1 = found
        return GroupVerdict("yes", {"kind": "factorization",
                                    "h2_factors": list(factors2),
                                    "h1_factors": list(factors1)})
    # with both subgroups trivial the question is triviality, which a
    # rewriting trace to the empty word settles before any coset table
    if not any(h1_words) and not any(h2_words):
        trace = rewrite_search(presentation, word, budget)
        if trace is not None:
            return GroupVerdict("yes", {"kind": "rewriting_trace",
                                        "trace": [list(w) for w in trace]})
    # exact decision from a completed coset table for H1, or symmetrically
    # for H2 applied to the inverse question (pointless when H2 is trivial)
    attempts = [(h1_words, h2_words, word, False)]
    if any(h2_words):
        attempts.append((h2_words, h1_words, inverse_word(word), True))
    for subgroup, others, w, swap in attempts:
        table = _built(presentation,
                       ("coset", tuple(subgroup), budget.coset_nodes),
                       lambda: coset_enumeration(
                           presentation, subgroup,
                           max_cosets=budget.coset_nodes))
        if table is None:
            continue
        # w in H2 H1  <=>  some coset H1 x with x in H2 satisfies
        # (H1 x) . w = H1; only the orbit of coset 0 under H2 is tested
        orbit = _orbit(table, others)
        hits = [c for c in orbit if table.apply(c, w) == 0]
        if hits:
            # orbit word x has the coset H1 x, so h2 = x^-1
            return GroupVerdict("yes", {"kind": "coset_table",
                                        "table": table.to_json(),
                                        "h2_inverse_factors":
                                            list(orbit[min(hits)]),
                                        "max_cosets": budget.coset_nodes,
                                        "swapped": swap})
        return GroupVerdict("no", {"kind": "coset_table",
                                   "table": table.to_json(),
                                   "orbit_size": len(orbit),
                                   "swapped": swap})
    found, _complete = quotient_search(
        presentation,
        lambda n, images: _double_coset_separation(n, images, h1_words,
                                                   h2_words, word),
        budget)
    if found:
        n, images = found
        return GroupVerdict("no", {"kind": "quotient_separation",
                                   "degree": n,
                                   "images": [list(p) for p in images]})
    return GroupVerdict("unknown", {"kind": "budget_exhausted",
                                    "budget": budget.to_json()})


def _factorization(presentation, h1_words, h2_words, word, budget):
    """The factor lists of the first product p2 of the H2 table, in its
    order, with p2^-1 w in the H1 table, or None.  Free reduction keeps
    exponent sums, so w = p2·p1 puts w's exponent vector in the span of
    the subgroups' vectors, relators left out; a word outside it has no
    factorisation at any depth and builds no table.  For freely reduced p2
    and w only their common prefix, of length k, cancels, so p2^-1 w has
    length |p2| + |w| - 2k and is built only when the H1 table has a
    product of that length."""
    if any(lattice_remainder(
            exponent_lattice(presentation, [*h1_words, *h2_words],
                             relators=False),
            presentation.exponent_vector(word))):
        return None
    depth, nodes = budget.factor_depth, budget.factor_nodes
    (t1, lengths1), (t2, _) = (
        _built(presentation, ("factor", tuple(h), depth, nodes),
               lambda: _product_table(h, depth, nodes))
        for h in (h1_words, h2_words))
    n = len(word)
    for p2, factors2 in t2.items():
        k = 0
        for a, b in zip(p2, word):
            if a != b:
                break
            k += 1
        if len(p2) + n - 2 * k in lengths1:
            rest = inverse_word(p2[k:]) + word[k:]
            if rest in t1:
                return factors2, t1[rest]
    return None


def _double_coset_separation(n, images, h1_words, h2_words, word):
    sub1 = subgroup_closure([_evaluate(images, h, n) for h in h1_words], n)
    sub2 = subgroup_closure([_evaluate(images, h, n) for h in h2_words], n)
    qw = _evaluate(images, word, n)
    # q(h2 h1) acts as h2 first, then h1
    product = {_perm_mul(a, b) for a in sub2 for b in sub1}
    if qw not in product:
        return (n, images)
    return None


# ---- certificate replay ----

def _ints(value, ok=lambda x: True):
    """Whether a certificate value is a list of ints, each satisfying ok."""
    return (isinstance(value, (list, tuple))
            and all(type(x) is int and ok(x) for x in value))


def _rebuild_table(presentation, subgroup_words, cert):
    from .coset import CosetTable
    data = cert.get("table")
    rows = data.get("table") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(_ints(r) for r in rows)):
        return None
    rows = [tuple(r) for r in rows]
    table = CosetTable(presentation.generator_count, presentation.relators,
                       [tuple(h) for h in subgroup_words], rows)
    return table if table.verify() else None


def replay_word_verdict(presentation, word, verdict):
    """Independent check of a decide_word yes/no certificate."""
    return replay_double_coset_verdict(presentation, (), (), word,
                                       _negated(verdict))


def replay_membership_verdict(presentation, subgroup_words, word, verdict):
    """Independent check of a decide_membership yes/no certificate."""
    return replay_double_coset_verdict(presentation, subgroup_words, (),
                                       word, verdict)


def replay_double_coset_verdict(presentation, h1_words, h2_words, word,
                                verdict):
    """Independent check of a decide_double_coset yes/no certificate.
    Only the certificate's witness is read: an abelianisation certificate
    is recomputed, so it may omit its image.  A "yes" coset table is
    re-enumerated under its own cap, which must lie within the default
    `coset_nodes`, and a quotient separation's degree must lie within the
    default `quotient_degree`, so a certificate cannot set how long its
    replay runs."""
    word = free_reduce(word)
    h1_words = [free_reduce(h) for h in h1_words]
    h2_words = [free_reduce(h) for h in h2_words]
    cert = verdict.certificate
    kind = cert.get("kind")
    if verdict.answer == "unknown":
        return kind == "budget_exhausted"
    if kind == "abelianization":
        return verdict.answer == "no" and not in_column_span(
            presentation.relator_matrix() + [presentation.exponent_vector(h)
                                             for h in h1_words + h2_words],
            presentation.exponent_vector(word))
    if kind == "factorization":
        p2 = _product(h2_words, cert.get("h2_factors"))
        p1 = _product(h1_words, cert.get("h1_factors"))
        return (verdict.answer == "yes" and None not in (p2, p1)
                and concat(p2, p1) == word)
    if kind == "rewriting_trace":
        # a trivial word lies in every double coset
        return verdict.answer == "yes" and replay_rewrite_trace(
            presentation, word, cert.get("trace"))
    if kind == "coset_table":
        subgroup, others, w = h1_words, h2_words, word
        if cert.get("swapped"):
            subgroup, others, w = h2_words, h1_words, inverse_word(word)
        if verdict.answer == "yes":
            # a valid action only puts x w in the stabiliser of coset 0,
            # which contains the subgroup but can be larger; the table must
            # be the subgroup's own, as its enumeration rebuilds it
            cap = cert.get("max_cosets")
            table = (coset_enumeration(presentation, subgroup, max_cosets=cap)
                     if type(cap) is int
                     and 1 <= cap <= Budget.DEFAULTS["coset_nodes"]
                     else None)
            x = _product(others, cert.get("h2_inverse_factors"))
            if (table is None or x is None
                    or table.to_json() != cert.get("table")):
                return False
            return table.apply(0, concat(x, w)) == 0
        table = _rebuild_table(presentation, subgroup, cert)
        return table is not None and not any(
            table.apply(c, w) == 0 for c in _orbit(table, others))
    if kind == "quotient_separation":
        # the relators prove nothing about images that are not bijections;
        # the closures and their product grow with n!, so n is capped
        n, images = cert.get("degree"), cert.get("images")
        if not (type(n) is int
                and 1 <= n <= Budget.DEFAULTS["quotient_degree"]
                and isinstance(images, list)
                and len(images) == presentation.generator_count
                and all(_ints(p) and sorted(p) == list(range(n))
                        for p in images)):
            return False
        images = [tuple(p) for p in images]
        identity = tuple(range(n))
        return (verdict.answer == "no"
                and all(_evaluate(images, r, n) == identity
                        for r in presentation.relators)
                and _double_coset_separation(n, images, h1_words, h2_words,
                                             word) is not None)
    return False
