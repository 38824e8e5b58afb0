"""
Triangulations of closed 3-dimensional pseudo-manifolds from face-gluing data.

A triangulation is a set of tetrahedra, vertices labelled 0..3, with faces
identified in pairs by affine maps recorded as vertex permutations.  Face i
of a tetrahedron is the face opposite vertex i.
"""
import json


class Perm4:
    """A permutation of the labels {0,1,2,3}, stored by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != [0, 1, 2, 3]:
            raise ValueError("not a permutation of {0,1,2,3}: %r" % (images,))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm4 is immutable")

    def __call__(self, i):
        return self.images[i]

    def __getitem__(self, i):
        return self.images[i]

    def __mul__(self, other):
        # (self * other)(i) == self(other(i))
        return Perm4(tuple(self.images[other.images[i]] for i in range(4)))

    def inverse(self):
        inv = [0] * 4
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm4(inv)

    def is_identity(self):
        return self.images == (0, 1, 2, 3)

    def sign(self):
        s = 1
        im = self.images
        for i in range(4):
            for j in range(i + 1, 4):
                if im[i] > im[j]:
                    s = -s
        return s

    def __eq__(self, other):
        return isinstance(other, Perm4) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm4(%d%d%d%d)" % self.images

    @staticmethod
    def identity():
        return Perm4((0, 1, 2, 3))

    @staticmethod
    def all():
        """All 24 permutations, in lexicographic order of image tuples."""
        from itertools import permutations
        return [Perm4(p) for p in permutations(range(4))]


IDENTITY = Perm4.identity()


def _perm_from_map(mapping):
    """The Perm4 extending a map of three or four labels: a label left out
    goes to the one image not used."""
    images = [None] * 4
    for k, v in mapping.items():
        images[k] = v
    missing_src = [k for k in range(4) if images[k] is None]
    missing_dst = [v for v in range(4) if v not in mapping.values()]
    if len(missing_src) != len(missing_dst) or len(missing_src) > 1:
        raise ValueError("cannot extend %r to a permutation" % (mapping,))
    for k, v in zip(missing_src, missing_dst):
        images[k] = v
    return Perm4(images)


# face i is opposite vertex i; FACE_VERTICES[i] lists the vertices spanning it
FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# the six edges of a tetrahedron, as ordered pairs a < b
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Triangulation:
    """
    A collection of tetrahedra with face gluings.

    gluings[t][f] is either None (boundary face) or a pair (t', sigma) where
    sigma is the Perm4 carrying vertex labels of tetrahedron t to labels of
    t'; face f of t is glued to face sigma(f) of t'.  Immutable once built.
    """

    def __init__(self, tet_count, gluings, name=None):
        if tet_count < 0:
            raise ValueError("negative tetrahedron count")
        if len(gluings) != tet_count:
            raise ValueError("gluing table has %d rows, expected %d"
                             % (len(gluings), tet_count))
        table = []
        for t, row in enumerate(gluings):
            if len(row) != 4:
                raise ValueError("tetrahedron %d: expected 4 faces" % t)
            entries = []
            for f, entry in enumerate(row):
                if entry is None:
                    entries.append(None)
                    continue
                other, perm = entry
                if not 0 <= other < tet_count:
                    raise ValueError(
                        "gluing (%d,%d): target tetrahedron %d out of range"
                        % (t, f, other))
                if not isinstance(perm, Perm4):
                    perm = Perm4(perm)
                entries.append((other, perm))
            table.append(tuple(entries))
        self._gluings = tuple(table)
        self._tet_count = tet_count
        self.name = name

    @property
    def tet_count(self):
        return self._tet_count

    def gluing(self, tet, face):
        return self._gluings[tet][face]

    @property
    def gluings(self):
        return self._gluings

    def is_closed(self):
        """True when every face of every tetrahedron is glued."""
        return all(g is not None for row in self._gluings for g in row)

    def is_connected(self):
        if self._tet_count == 0:
            return True
        seen = {0}
        queue = [0]
        while queue:
            t = queue.pop()
            for entry in self._gluings[t]:
                if entry is not None and entry[0] not in seen:
                    seen.add(entry[0])
                    queue.append(entry[0])
        return len(seen) == self._tet_count

    def validate(self):
        """
        Check the gluing table and return a ValidationReport.

        Violations reported: a gluing whose mate does not point back with the
        inverse permutation, a face glued to itself by a face-fixing map, and
        (in closed mode) unglued faces.
        """
        violations = []
        for t in range(self._tet_count):
            for f in range(4):
                entry = self._gluings[t][f]
                if entry is None:
                    violations.append(("unglued", t, f,
                                       "face (%d,%d) is not glued" % (t, f)))
                    continue
                other, perm = entry
                if other == t and perm(f) == f:
                    violations.append(
                        ("self_identification", t, f,
                         "face (%d,%d) is glued to itself" % (t, f)))
                    continue
                back = self._gluings[other][perm(f)]
                if back is None or back[0] != t or back[1] != perm.inverse():
                    violations.append(
                        ("mutual_inverse", t, f,
                         "mutual inverse violated at (%d,%d)" % (t, f)))
        return ValidationReport(violations)

    def relabelled(self, tet_map, vertex_maps=None):
        """
        Relabel tetrahedra by the bijection tet_map (old index -> new index),
        optionally composing a Perm4 per tetrahedron on the vertex labels.
        """
        n = self._tet_count
        if sorted(tet_map) != list(range(n)):
            raise ValueError("tet_map is not a bijection")
        if vertex_maps is None:
            vertex_maps = [IDENTITY] * n
        rows = [[None] * 4 for _ in range(n)]
        for t in range(n):
            pt = vertex_maps[t]
            for f in range(4):
                entry = self._gluings[t][f]
                if entry is None:
                    continue
                other, perm = entry
                rows[tet_map[t]][pt(f)] = (
                    tet_map[other], vertex_maps[other] * perm * pt.inverse())
        return Triangulation(n, rows, name=self.name)

    def to_json(self):
        """Structured format: round-trips bit-exactly with the model."""
        rows = []
        for row in self._gluings:
            out = []
            for entry in row:
                if entry is None:
                    out.append(None)
                else:
                    out.append([entry[0], list(entry[1].images)])
            rows.append(out)
        doc = {"tets": self._tet_count, "gluings": rows}
        if self.name is not None:
            doc["name"] = self.name
        return doc

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self._gluings == other._gluings)

    def __repr__(self):
        return "Triangulation(%d tetrahedra%s)" % (
            self._tet_count, ", %r" % self.name if self.name else "")


class ValidationReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def valid(self):
        return not self.violations

    def messages(self):
        return [v[3] for v in self.violations]

    def __repr__(self):
        if self.valid:
            return "ValidationReport(valid)"
        return "ValidationReport(%d violations)" % len(self.violations)


class ParseError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# columns of the table format, in order: the vertices of each glued face
_TABLE_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def parse_table(text):
    """
    Parse the tabular gluing format.

    Header line ``tets: N``, then one line per tetrahedron of the form
    ``i: t (abc) | t (abc) | t (abc) | t (abc)`` where the four columns glue
    the faces 012, 013, 023 and 123, and ``t (abc)`` glues to tetrahedron t
    carrying the column's face vertices to a, b, c in order.  ``#`` starts a
    comment; blank lines are ignored.
    """
    import re
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ParseError("empty document (no 'tets:' header)")
    lineno, header = lines[0]
    m = re.fullmatch(r"tets\s*:\s*(\d+)", header)
    if not m:
        raise ParseError("expected header 'tets: N'", lineno)
    n = int(m.group(1))
    rows = {}
    entry_re = re.compile(r"(\d+)\s*\(\s*(\d)\s*(\d)\s*(\d)\s*\)")
    for lineno, line in lines[1:]:
        m = re.match(r"(\d+)\s*:\s*(.*)$", line)
        if not m:
            raise ParseError("expected 'i: ...' row", lineno)
        t = int(m.group(1))
        if t >= n:
            raise ParseError("tetrahedron index %d out of range" % t, lineno)
        if t in rows:
            raise ParseError("duplicate row for tetrahedron %d" % t, lineno)
        cells = [c.strip() for c in m.group(2).split("|")]
        if len(cells) != 4:
            raise ParseError("expected 4 face columns, got %d" % len(cells),
                             lineno)
        row = [None] * 4
        for col, cell in enumerate(cells):
            em = entry_re.fullmatch(cell)
            if not em:
                raise ParseError("bad gluing entry %r" % cell, lineno)
            other = int(em.group(1))
            if other >= n:
                raise ParseError("target tetrahedron %d out of range" % other,
                                 lineno)
            images = tuple(int(em.group(k)) for k in (2, 3, 4))
            face = _TABLE_FACES[col]
            try:
                perm = _perm_from_map(dict(zip(face, images)))
            except ValueError as e:
                raise ParseError(str(e), lineno)
            face_index = 6 - sum(face)  # the vertex opposite the face
            if row[face_index] is not None:
                raise ParseError(
                    "duplicate assignment for face %d" % face_index, lineno)
            row[face_index] = (other, perm)
        rows[t] = row
    gluings = []
    for t in range(n):
        if t not in rows:
            raise ParseError("missing row for tetrahedron %d" % t)
        gluings.append(rows[t])
    return Triangulation(n, gluings)


def parse_json(text):
    """Parse the structured JSON format written by Triangulation.to_json."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e)
    if not isinstance(doc, dict) or "tets" not in doc:
        raise ParseError("missing 'tets' field")
    n = doc["tets"]
    if type(n) is not int or n < 0:
        raise ParseError("'tets' must be a non-negative integer")
    raw = doc.get("gluings", [])
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ParseError("'gluings' must be a list of rows")
    for t, row in enumerate(raw):
        for f, entry in enumerate(row):
            if entry is not None and not (
                    isinstance(entry, list) and len(entry) == 2
                    and type(entry[0]) is int
                    and isinstance(entry[1], list)
                    and all(type(i) is int for i in entry[1])):
                raise ParseError("gluing (%d,%d): expected null or [tet, "
                                 "[4 vertex images]], got %r" % (t, f, entry))
    try:
        return Triangulation(n, raw, name=doc.get("name"))
    except ValueError as e:
        raise ParseError(str(e))


def parse_triangulation(text):
    """Parse either accepted format (JSON if the document starts with '{')."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_table(text)


def to_table(tri):
    """Render a triangulation in the tabular format (glued faces only)."""
    lines = ["tets: %d" % tri.tet_count]
    for t in range(tri.tet_count):
        cells = []
        for face in _TABLE_FACES:
            face_index = 6 - sum(face)
            entry = tri.gluing(t, face_index)
            if entry is None:
                raise ValueError("face (%d,%d) is unglued; table format "
                                 "requires a closed triangulation"
                                 % (t, face_index))
            other, perm = entry
            cells.append("%d (%d%d%d)" % (other, perm(face[0]),
                                          perm(face[1]), perm(face[2])))
        lines.append("%d: %s" % (t, " | ".join(cells)))
    return "\n".join(lines) + "\n"


def are_isomorphic(t1, t2):
    """
    Search for a combinatorial isomorphism t1 -> t2.

    Returns (tet_map, vertex_maps) commuting with all gluings, or None.
    Backtracks over the image of tetrahedron 0 and propagates across
    gluings; both triangulations must be connected and closed.
    """
    n = t1.tet_count
    if n != t2.tet_count:
        return None
    if n == 0:
        return ([], [])
    for target in range(n):
        for perm in Perm4.all():
            result = _extend_isomorphism(t1, t2, target, perm)
            if result is not None:
                return result
    return None


def _extend_isomorphism(t1, t2, image0, perm0):
    n = t1.tet_count
    tet_map = [None] * n
    vertex_maps = [None] * n
    tet_map[0] = image0
    vertex_maps[0] = perm0
    used = {image0}
    queue = [0]
    while queue:
        t = queue.pop()
        for f in range(4):
            e1 = t1.gluing(t, f)
            e2 = t2.gluing(tet_map[t], vertex_maps[t](f))
            if (e1 is None) != (e2 is None):
                return None
            if e1 is None:
                continue
            other1, sigma1 = e1
            other2, sigma2 = e2
            # the image of other1 must be other2 with map sigma2 * p * sigma1^-1
            neighbour_map = sigma2 * vertex_maps[t] * sigma1.inverse()
            if tet_map[other1] is None:
                if other2 in used:
                    return None
                tet_map[other1] = other2
                vertex_maps[other1] = neighbour_map
                used.add(other2)
                queue.append(other1)
            else:
                if tet_map[other1] != other2 or vertex_maps[other1] != neighbour_map:
                    return None
    if any(m is None for m in tet_map):
        # disconnected input: no search over remaining components
        return None
    return (tet_map, vertex_maps)
