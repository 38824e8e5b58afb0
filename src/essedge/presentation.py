"""
Words and finite presentations.  A word is a tuple of nonzero ints, letter
+-(g+1) standing for generator g or its inverse.  Free reduction is the
only normalisation ever applied implicitly.  A presentation's
abelianisation is `snf.cokernel` of its relator matrix, the one SNF
cokernel routine, which the peripheral choice of a cusp also reads.  The
group decider and certification need no SNF: they compare exponent
vectors modulo lattices (`decide.exponent_lattice`).
"""
from functools import cached_property
from operator import mul

from .snf import cokernel


def free_reduce(letters):
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word):
    return tuple(-x for x in reversed(word))


def concat(*words):
    out = []
    for w in words:
        out.extend(w)
    return free_reduce(out)


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def word_from_string(text):
    """Parse words like "ab A" or "a b^-1": letters a..z are generators
    0..25, capitals their inverses; whitespace ignored."""
    out = []
    for ch in text.replace(" ", ""):
        if ch.islower():
            out.append(ord(ch) - ord("a") + 1)
        elif ch.isupper():
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError("bad word character %r" % ch)
    return free_reduce(out)


def word_to_string(word):
    return "".join(chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1)
                   for x in word) or "1"


class Presentation:
    """A finite presentation: generator count plus relator words.  `built`
    holds what `essedge.decide` has built for it."""

    def __init__(self, generator_count, relators):
        self.generator_count = generator_count
        rels = []
        for r in relators:
            r = free_reduce(r)
            for x in r:
                if not 1 <= abs(x) <= generator_count:
                    raise ValueError("relator letter %d out of range" % x)
            rels.append(r)
        self.relators = tuple(rels)
        self.built = {}

    def exponent_vector(self, word):
        v = [0] * self.generator_count
        for x in word:
            v[abs(x) - 1] += 1 if x > 0 else -1
        return v

    def relator_matrix(self):
        return [self.exponent_vector(r) for r in self.relators]

    @cached_property
    def abelianization(self):
        """H1 in coordinates: the cokernel (rows of U, moduli d) of the
        relator matrix."""
        return cokernel(self.relator_matrix(), self.generator_count)

    def __repr__(self):
        return "Presentation(%d generators | %s)" % (
            self.generator_count,
            ", ".join(word_to_string(r) for r in self.relators) or "-")


def homology(presentation):
    """Smith invariants of the abelianised presentation: torsion factors
    then one 0 per free factor, the moduli of its abelianisation."""
    return presentation.abelianization[1]


def word_image(presentation, word):
    """Image of a word in the abelianisation, reduced to a canonical tuple
    (zero exactly for words trivial in the abelianisation)."""
    v = presentation.exponent_vector(word)
    coordinates, moduli = presentation.abelianization
    return tuple(c % d if d else c for c, d in zip(
        (sum(map(mul, row, v)) for row in coordinates), moduli))


def simplify_presentation(presentation, budget=1000):
    """
    Tietze simplification: free and cyclic reduction, removal of empty
    relators, elimination of generators occurring in length-1 or length-2
    relators, and substitution through relators where a generator appears
    exactly once.  The group is unchanged; at most `budget` elimination
    passes run, so the result is a fixpoint whenever the budget allows.
    """
    ngens = presentation.generator_count
    relators = [cyclic_reduce(r) for r in presentation.relators]

    for _ in range(budget):
        relators = sorted({cyclic_reduce(r) for r in relators if r},
                          key=lambda r: (len(r), r))
        # the first relator with a generator appearing exactly once in it
        target = next(((r, i) for r in relators for i, x in enumerate(r)
                       if sum(abs(y) == abs(x) for y in r) == 1), None)
        if target is None:
            break
        rel, i = target
        g = abs(rel[i])
        # rotate the unique occurrence of g to the front: g w = 1 gives
        # g -> w^-1, while g^-1 w = 1 gives g -> w
        rot = rel[i:] + rel[:i]
        replacement = inverse_word(rot[1:]) if rot[0] == g else rot[1:]
        images = {g: replacement, -g: inverse_word(replacement)}
        substituted = [cyclic_reduce([y for x in r
                                      for y in images.get(x, (x,))])
                       for r in relators if r != rel]
        # delete generator g, renumber the ones above it
        relators = [tuple(x - 1 if x > g else x + 1 if x < -g else x
                          for x in r) for r in substituted]
        ngens -= 1

    relators = sorted({cyclic_reduce(r) for r in relators if r},
                      key=lambda r: (len(r), r))
    return Presentation(ngens, relators)
