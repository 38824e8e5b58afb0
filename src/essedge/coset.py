"""
Todd-Coxeter coset enumeration, HLT style: follow relator paths from each
live coset, defining cosets as needed, and merge coincidences through a
union-find as they arise.  One pass over the cosets, in order of
definition, completes the table (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, §5.1; see `_Enumerator.run`).  Enumeration is
deterministic and aborts once more than the budgeted number of cosets has
been defined.
"""

UNDEF = -1


def _col(letter, ngens):
    g = abs(letter) - 1
    if not 0 <= g < ngens:
        raise ValueError("letter %d out of range" % letter)
    return 2 * g if letter > 0 else 2 * g + 1


def _invcol(col):
    return col ^ 1


class CosetTable:
    """A completed enumeration: rows are live cosets, columns generator and
    inverse actions, coset 0 the subgroup itself."""

    def __init__(self, ngens, relators, subgroup, rows):
        self.ngens = ngens
        self.relators = tuple(relators)
        self.subgroup = tuple(subgroup)
        self.rows = rows

    @property
    def coset_count(self):
        return len(self.rows)

    def step(self, coset, letter):
        return self.rows[coset][_col(letter, self.ngens)]

    def apply(self, coset, word):
        for x in word:
            coset = self.step(coset, x)
        return coset

    def verify(self):
        """Whether the table is a genuine action of the group (every
        relator acts trivially) in which the subgroup generators fix coset
        0.  That proves the subgroup lies in the stabiliser of coset 0, so
        a word moving coset 0 is not in the subgroup; it does not prove the
        stabiliser is the subgroup, so a word fixing coset 0 need not lie
        in it."""
        n = len(self.rows)
        for c, row in enumerate(self.rows):
            if len(row) != 2 * self.ngens:
                return False
            for col in range(2 * self.ngens):
                d = row[col]
                if not 0 <= d < n:
                    return False
                if self.rows[d][_invcol(col)] != c:
                    return False
        for rel in self.relators:
            for c in range(n):
                if self.apply(c, rel) != c:
                    return False
        return n > 0 and all(self.apply(0, h) == 0 for h in self.subgroup)

    def coset_words(self):
        """A word reaching each coset from coset 0, by breadth-first
        search in generator order."""
        words = {0: ()}
        queue = [0]
        while queue:
            c = queue.pop(0)
            for g in range(self.ngens):
                for letter in (g + 1, -(g + 1)):
                    d = self.step(c, letter)
                    if d not in words:
                        words[d] = words[c] + (letter,)
                        queue.append(d)
        return [words[c] for c in range(len(self.rows))]

    def to_json(self):
        return {"cosets": len(self.rows), "generators": self.ngens,
                "table": [list(r) for r in self.rows]}


class _Enumerator:
    def __init__(self, ngens, relators, subgroup, max_cosets):
        self.ngens = ngens
        self.relators = [tuple(r) for r in relators]
        self.subgroup = [tuple(h) for h in subgroup]
        self.max_cosets = max_cosets
        self.labels = []
        self.neighbors = []
        self.defined = 0
        self.merges = 0

    def rep(self, c):
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def add_vertex(self):
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([UNDEF] * (2 * self.ngens))
        self.defined += 1
        return c

    def step(self, c, col):
        c = self.rep(c)
        row = self.neighbors[c]
        if row[col] == UNDEF:
            d = self.add_vertex()
            row[col] = d
            self.neighbors[d][_invcol(col)] = c
        return self.rep(row[col])

    def follow(self, c, word):
        for letter in word:
            c = self.step(c, _col(letter, self.ngens))
        return c

    def unify(self, c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = self.rep(a), self.rep(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.labels[b] = a
            self.merges += 1
            for col in range(2 * self.ngens):
                nb = self.neighbors[b][col]
                if nb == UNDEF:
                    continue
                na = self.neighbors[a][col]
                if na == UNDEF:
                    # stale labels are resolved through rep() on read
                    self.neighbors[a][col] = nb
                else:
                    stack.append((na, nb))

    def run(self):
        """The completed table, or None once the cap is passed.  One HLT
        pass suffices: a scanned coset keeps its full row and closed
        relator cycles, since a merge maps them onto the smaller
        representative, scanned earlier, and the cosets the pass defines
        are appended and scanned by the same loop."""
        start = self.add_vertex()
        for h in self.subgroup:
            self.unify(self.follow(start, h), start)
            if self.defined > self.max_cosets:
                return None
        to_visit = 0
        while to_visit < len(self.labels):
            if self.rep(to_visit) == to_visit:
                for rel in self.relators:
                    self.unify(self.follow(to_visit, rel), to_visit)
                    if self.defined > self.max_cosets:
                        return None
                    if self.rep(to_visit) != to_visit:
                        break
                if self.rep(to_visit) == to_visit:
                    for col in range(2 * self.ngens):
                        self.step(to_visit, col)
                        if self.defined > self.max_cosets:
                            return None
            to_visit += 1
        return self.compress()

    def compress(self):
        live = [c for c in range(len(self.labels)) if self.rep(c) == c]
        index = {c: i for i, c in enumerate(live)}
        rows = []
        for c in live:
            row = []
            for col in range(2 * self.ngens):
                d = self.neighbors[c][col]
                if d == UNDEF:
                    raise RuntimeError("incomplete table after enumeration")
                row.append(index[self.rep(d)])
            rows.append(row)
        return CosetTable(self.ngens, self.relators, self.subgroup, rows)


def coset_enumeration(presentation, subgroup_words=(), max_cosets=10000):
    """
    Enumerate cosets of the subgroup generated by the given words.

    Returns a CosetTable on completion within budget, else None.  With an
    empty subgroup the table is the regular action of a finite quotient
    certificate of the whole group.
    """
    enum = _Enumerator(presentation.generator_count, presentation.relators,
                       subgroup_words, max_cosets)
    table = enum.run()
    if table is not None and not table.verify():
        raise RuntimeError("coset table failed verification")
    return table
