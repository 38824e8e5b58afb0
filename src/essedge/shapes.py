"""
Thurston gluing equations: exact verification of Gaussian-rational shape
assignments, Newton solving of the log-form equations, and the bridge from
shapes to angle structures.

Shape slot convention, validated by the exact edge products of the bundled
fixtures: z at the {01, 23} edge pair, 1/(1-z) at {02, 13}, 1-1/z at
{03, 12}.

Each fact is derived in one place and read everywhere.  A ShapeAssignment
holds exact shapes only; Newton returns plain complex numbers, which the
certifier rationalises.  `slot_values` alone applies the convention, to
both, and a ShapeAssignment derives its table of 3n slot values with it
on first use.  `_gluing_equations` alone builds the rows: the skeleton's
edge-slot incidence, which the angle equations share, then one cusp row
per peripheral curve.  `_row_product` evaluates a row exactly on the slot
table, and `as_shapes` coerces and length-checks every shape input.
`verify_shapes` alone checks the edge equations; its ShapeReport, which
carries the skeleton and the shapes, is what the flat-cluster scan and
`shapes_to_angles` read.
"""
import cmath
import math
from functools import cached_property

from .fundamental import SpineData
from .gaussian import as_gaussian, parse_gaussian, ONE
from .skeleton import as_skeleton, slot_of


class ShapeError(ValueError):
    pass


class NewtonError(RuntimeError):
    pass


def slot_values(z):
    """The slot values (z, 1/(1-z), 1-1/z) of a shape z, exact for a
    GaussianRational."""
    return z, 1 / (1 - z), 1 - 1 / z


class ShapeAssignment:
    """One exact GaussianRational shape per tetrahedron, with its slot
    values derived once, on first use."""

    def __init__(self, shapes):
        try:
            self.shapes = tuple(as_gaussian(z) for z in shapes)
        except TypeError as e:
            raise ShapeError("shapes must be exact: %s" % e) from None
        for t, z in enumerate(self.shapes):
            if z == 0 or z == 1:
                raise ShapeError("tetrahedron %d has degenerate shape %r"
                                 % (t, z))

    def __len__(self):
        return len(self.shapes)

    @cached_property
    def slots(self):
        """The 3n slot values: entry 3t + s is slot s of tetrahedron t."""
        return tuple(w for z in self.shapes for w in slot_values(z))

    @cached_property
    def arguments(self):
        """The argument of each slot value, in pi-units."""
        return tuple(_slot_argument(w) for w in self.slots)

    def flat_set(self):
        """Tetrahedra whose shape has zero imaginary part."""
        return [t for t, z in enumerate(self.shapes) if z.im == 0]

    def __repr__(self):
        return "ShapeAssignment(%s)" % (list(self.shapes),)


def parse_shapes(text):
    """Shapes from text (one exact number per line, '#' comments) or a
    JSON document {"shapes": ["...", ...]}."""
    import json
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        entries = doc.get("shapes") if isinstance(doc, dict) else None
        if not (isinstance(entries, list)
                and all(isinstance(e, str) for e in entries)):
            raise ShapeError('expected a JSON document {"shapes": [...]} '
                             'with one string per shape')
    else:
        entries = [line.split("#", 1)[0].strip()
                   for line in text.splitlines()]
        entries = [e for e in entries if e]
    return ShapeAssignment([parse_gaussian(e) for e in entries])


def as_shapes(shapes, skeleton):
    """The shapes as a ShapeAssignment, one per tetrahedron of the
    skeleton."""
    if not isinstance(shapes, ShapeAssignment):
        shapes = ShapeAssignment(shapes)
    n = skeleton.triangulation.tet_count
    if len(shapes) != n:
        raise ShapeError("expected %d shapes, got %d" % (n, len(shapes)))
    return shapes


def _gluing_equations(tri_or_skeleton):
    """
    The skeleton and the log-form gluing and completeness equations: the
    rows, integer vectors of length 3n in slot order, and their right-hand
    sides.  The edge rows come first, each demanding that its slot values'
    logarithms sum to 2 pi i; then one cusp row per peripheral curve of
    each vertex link, demanding log-holonomy 0.  Raises ShapeError unless
    every link is a torus, so that every edge is interior.
    """
    spine = (tri_or_skeleton if isinstance(tri_or_skeleton, SpineData)
             else SpineData(tri_or_skeleton))
    skeleton = spine.skeleton
    columns = 3 * skeleton.triangulation.tet_count
    cusp_rows = []
    for link in skeleton.vertex_links:
        if link.surface_kind != "torus":
            raise ShapeError("vertex %d link is a %s, not a torus"
                             % (link.index, link.surface_kind))
        for curve in spine.peripheral(link.index).curves:
            cusp_rows.append(_curve_row(link, curve, columns))
    edge_rows = skeleton.edge_rows
    targets = ([complex(0.0, 2.0 * math.pi)] * len(edge_rows)
               + [0j] * len(cusp_rows))
    return skeleton, edge_rows + cusp_rows, targets


def _curve_row(link, curve, columns):
    """Exponent row of a peripheral curve: each corner the curve cuts
    contributes the slot of that corner, signed by turn handedness in the
    link's chosen orientation."""
    structure = link.structure
    orient = structure.orient
    row = [0] * columns
    m = len(curve)
    for k in range(m):
        tv, out_side = curve[(k + 1) % m]
        prev_tv, prev_out = curve[k]
        tv_in, f_in, _sigma = structure.side_gluing[(prev_tv, prev_out)]
        if tv_in != tv:
            raise ShapeError("peripheral curve is not contiguous")
        t, v = tv
        w = 6 - v - f_in - out_side
        corners = sorted(u for u in range(4) if u != v)
        i = corners.index(w)
        nxt = corners[(i + 1) % 3]
        prv = corners[(i - 1) % 3]
        if orient[tv] < 0:
            nxt, prv = prv, nxt
        # boundary orientation passes corner w from side(next) to
        # side(prev); agreeing turns count +1
        sign = 1 if (f_in, out_side) == (nxt, prv) else -1
        row[3 * t + slot_of(v, w)] += sign
    return row


class ShapeReport:
    def __init__(self, skeleton, shapes, edge_products, edge_argument_sums):
        self.skeleton = skeleton
        self.shapes = shapes
        self.edge_products = edge_products
        self.edge_argument_sums = edge_argument_sums
        self.flat = shapes.flat_set()

    @property
    def products_ok(self):
        return all(p == 1 for p in self.edge_products)

    def arguments_ok(self):
        return all(abs(s - 2.0) < 1e-9 / math.pi
                   for s in self.edge_argument_sums)

    @property
    def passed(self):
        return self.products_ok and self.arguments_ok()

    def __repr__(self):
        return ("ShapeReport(products_ok=%s, argument_sums=%s, flat=%s)"
                % (self.products_ok,
                   ["%.9f" % s for s in self.edge_argument_sums], self.flat))


def _slot_argument(value):
    """Argument of an exact slot value in units of pi, flat convention:
    positive reals give 0, negative reals give 1."""
    if value.im == 0:
        return 0.0 if value.re > 0 else 1.0
    return cmath.phase(complex(value)) / math.pi


def _row_product(row, shapes):
    """The product of the slot values raised to the row's exponents: the
    left-hand side of an edge or cusp equation."""
    prod = ONE
    for value, exp in zip(shapes.slots, row):
        for _ in range(abs(exp)):
            prod = prod * value if exp > 0 else prod / value
    return prod


def verify_shapes(tri_or_skeleton, shapes):
    """
    Exact check of the edge equations: for each edge class the exact
    product of incident slot values and the argument sum in pi-units, plus
    the flat set.
    """
    skeleton = as_skeleton(tri_or_skeleton)
    shapes = as_shapes(shapes, skeleton)
    rows = skeleton.edge_rows
    return ShapeReport(skeleton, shapes,
                       [_row_product(row, shapes) for row in rows],
                       [sum(exp * arg for exp, arg
                            in zip(row, shapes.arguments)) for row in rows])


def completeness_products(tri_or_skeleton, shapes):
    """Exact cusp-equation products (one per peripheral curve); all equal
    to 1 exactly when the verified solution is complete."""
    skeleton, rows, _targets = _gluing_equations(tri_or_skeleton)
    shapes = as_shapes(shapes, skeleton)
    return [_row_product(row, shapes)
            for row in rows[len(skeleton.edge_rows):]]


def shapes_to_angles(report):
    """
    Slot arguments of a verified shape solution, in pi-units, read from
    its verify_shapes report.  With all imaginary parts positive this is a
    strict angle structure; flat tetrahedra contribute 0/1 entries.
    Raises unless the report passed.
    """
    if not report.passed:
        raise ShapeError("shape assignment fails the edge equations")
    return list(report.shapes.arguments)


def _log_residual(rows, targets, zs):
    """Residuals of the log equations at the given complex shapes."""
    values = [w for z in zs for w in slot_values(z)]
    residuals = []
    for row, target in zip(rows, targets):
        total = 0j
        for w, exp in zip(values, row):
            if exp:
                total += exp * cmath.log(w)
        residuals.append(total - target)
    return residuals


def _jacobian_row(row, zs):
    """Derivative of one log equation with respect to each shape."""
    n = len(zs)
    out = [0j] * n
    for t in range(n):
        a, b, c = row[3 * t:3 * t + 3]
        if not (a or b or c):
            continue
        z = zs[t]
        out[t] = (a - c) / z + (b - c) / (1.0 - z)
    return out


def _solve_complex(matrix, rhs):
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-14:
            raise NewtonError("singular Jacobian")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][-1] / a[i][i] for i in range(n)]


def solve_shapes_newton(tri_or_skeleton, initial=None, tol=1e-12,
                        max_iter=50):
    """
    Newton iteration on the log-form gluing and completeness equations.

    A maximal independent subset of rows is selected at the initial point
    (edge rows first, ascending, then cusp rows); success requires the
    residual of every equation, including the dependent ones, to fall
    below tol.  Returns the shapes as a list of complex numbers; raises
    NewtonError on a singular Jacobian or divergence.
    """
    skeleton, rows, targets = _gluing_equations(tri_or_skeleton)
    n = skeleton.triangulation.tet_count
    if n == 0:
        raise ShapeError("empty triangulation")
    zs = [complex(z) for z in initial] if initial is not None else [1j] * n
    if len(zs) != n:
        raise ShapeError("expected %d initial shapes" % n)

    # deterministic choice of an independent square subsystem
    chosen = []
    basis = []
    for idx, row in enumerate(rows):
        if len(chosen) == n:
            break
        vec = _jacobian_row(row, zs)
        for pivot_col, pivot_val in basis:
            f = vec[pivot_col] / pivot_val[pivot_col]
            vec = [x - f * y for x, y in zip(vec, pivot_val)]
        if max(abs(x) for x in vec) > 1e-9:
            col = max(range(n), key=lambda k: abs(vec[k]))
            basis.append((col, vec))
            chosen.append(idx)
    if len(chosen) < n:
        raise NewtonError("gluing system rank %d < %d at the initial point"
                          % (len(chosen), n))

    worst = float("inf")
    for iteration in range(max_iter):
        residual = _log_residual(rows, targets, zs)
        worst = max(abs(r) for r in residual)
        if worst < tol:
            return zs
        sub = [_jacobian_row(rows[i], zs) for i in chosen]
        rhs = [-residual[i] for i in chosen]
        try:
            delta = _solve_complex(sub, rhs)
        except NewtonError:
            raise NewtonError("singular Jacobian at iteration %d"
                              % iteration)
        for t in range(n):
            zs[t] += delta[t]
            if zs[t] == 0 or zs[t] == 1:
                zs[t] += 1e-9j
    raise NewtonError("no convergence after %d iterations (residual %.3g)"
                      % (max_iter, worst))
