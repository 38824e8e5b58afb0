"""
Thurston gluing equations: exponent system construction, exact
verification of Gaussian-rational shape assignments, Newton solving of the
log-form equations, and the bridge from shapes to angle structures.

Shape slot convention, validated by the exact edge products of the bundled
fixtures: z at the {01, 23} edge pair, 1/(1-z) at {02, 13}, 1-1/z at
{03, 12}.

Each fact is derived in one place and read everywhere.  `slot_values`
alone applies the convention, and a ShapeAssignment derives its table of
3n slot values with it on first use.  The edge rows are the skeleton's
edge-slot incidence, which the angle equations share.  `_row_product`
evaluates an edge or cusp equation on the slot table, and `as_shapes`
coerces and length-checks every shape input.  `verify_shapes` alone checks
the edge equations; its ShapeReport, which carries the skeleton and the
shapes, is what the flat-cluster scan and `shapes_to_angles` read.
"""
import cmath
import math
from functools import cached_property

from .fundamental import SpineData
from .gaussian import GaussianRational, as_gaussian, parse_gaussian, ONE
from .skeleton import as_skeleton, slot_of


class ShapeError(ValueError):
    pass


class NewtonError(RuntimeError):
    pass


def slot_values(z):
    """The slot values (z, 1/(1-z), 1-1/z) of a shape z, exact for a
    GaussianRational."""
    one = ONE if isinstance(z, GaussianRational) else 1.0
    return z, one / (one - z), one - one / z


class ShapeAssignment:
    """One shape per tetrahedron, exact GaussianRational or complex float,
    with its slot values derived once, on first use."""

    def __init__(self, shapes):
        self.shapes = tuple(z if isinstance(z, complex) else as_gaussian(z)
                            for z in shapes)
        self.exact = all(isinstance(z, GaussianRational) for z in self.shapes)
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

    def slot_value(self, tet, slot):
        return self.slots[3 * tet + slot]

    def flat_set(self):
        """Tetrahedra whose shape has zero imaginary part."""
        out = []
        for t, z in enumerate(self.shapes):
            im = z.im if isinstance(z, GaussianRational) else z.imag
            if im == 0:
                out.append(t)
        return out

    def as_complex(self):
        return [complex(z) for z in self.shapes]

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


class GluingSystem:
    """
    Exponent data of the gluing and completeness equations: edge_rows[e]
    and cusp_rows[k] are integer vectors of length 3n (slot order as in
    the angle system); edge equations demand slot-value products equal 1
    with argument sum 2 pi, cusp equations log-holonomy 0.
    """

    def __init__(self, tri_or_skeleton):
        spine = (tri_or_skeleton if isinstance(tri_or_skeleton, SpineData)
                 else SpineData(tri_or_skeleton))
        skeleton = spine.skeleton
        self.skeleton = skeleton
        self.columns = 3 * skeleton.triangulation.tet_count
        # with every vertex link a torus every edge is interior, so these
        # are the rows of all the edge classes
        self.edge_rows = skeleton.edge_rows
        self.cusp_rows = []
        for link in skeleton.vertex_links:
            if link.surface_kind != "torus":
                raise ShapeError("vertex %d link is a %s, not a torus"
                                 % (link.index, link.surface_kind))
            peripheral = spine.peripheral(link.index)
            for curve in peripheral.curves:
                self.cusp_rows.append(self._curve_row(link, curve))

    def _curve_row(self, link, curve):
        """Exponent row of a peripheral curve: each corner the curve cuts
        contributes the slot of that corner, signed by turn handedness in
        the link's chosen orientation."""
        structure = link.structure
        orient = structure.orient
        row = [0] * self.columns
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

    @property
    def rows(self):
        return self.edge_rows + self.cusp_rows

    def targets(self):
        """Log-equation right-hand sides: 2 pi i for edge rows, 0 for cusp
        rows."""
        two_pi_i = complex(0.0, 2.0 * math.pi)
        return ([two_pi_i] * len(self.edge_rows)
                + [0j] * len(self.cusp_rows))


def build_gluing_system(tri_or_skeleton):
    return GluingSystem(tri_or_skeleton)


class ShapeReport:
    def __init__(self, skeleton, shapes, edge_products, edge_argument_sums):
        self.skeleton = skeleton
        self.shapes = shapes
        self.edge_products = edge_products
        self.edge_argument_sums = edge_argument_sums
        self.flat = shapes.flat_set()
        self.exact = shapes.exact

    @property
    def products_ok(self):
        if self.exact:
            return all(p == 1 for p in self.edge_products)
        return all(abs(p - 1) < 1e-9 for p in self.edge_products)

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
    """Argument in units of pi, flat convention: positive reals give 0,
    negative reals give 1."""
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return 0.0 if value.re > 0 else 1.0
        value = complex(value)
    phase = cmath.phase(value)
    if phase == 0 and value.real < 0:
        phase = math.pi
    return phase / math.pi


def _row_product(row, shapes):
    """The product of the slot values raised to the row's exponents: the
    left-hand side of an edge or cusp equation."""
    prod = ONE if shapes.exact else complex(1.0)
    for value, exp in zip(shapes.slots, row):
        for _ in range(abs(exp)):
            prod = prod * value if exp > 0 else prod / value
    return prod


def verify_shapes(tri_or_skeleton, shapes):
    """
    Exact check of the edge equations: for each edge class the product of
    incident slot values (exact for exact input) and the argument sum in
    pi-units, plus the flat set.
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
    system = build_gluing_system(tri_or_skeleton)
    shapes = as_shapes(shapes, system.skeleton)
    return [_row_product(row, shapes) for row in system.cusp_rows]


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


def _log_residual(system, zs):
    """Residuals of all log equations at the given complex shapes."""
    values = [w for z in zs for w in slot_values(z)]
    residuals = []
    for row, target in zip(system.rows, system.targets()):
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
        a = row[3 * t]
        b = row[3 * t + 1]
        c = row[3 * t + 2]
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
    below tol.  Raises NewtonError on a singular Jacobian or divergence.
    """
    system = build_gluing_system(tri_or_skeleton)
    n = system.columns // 3
    if n == 0:
        raise ShapeError("empty triangulation")
    zs = list(initial) if initial is not None else [complex(0.0, 1.0)] * n
    zs = [complex(z) for z in zs]
    if len(zs) != n:
        raise ShapeError("expected %d initial shapes" % n)

    # deterministic choice of an independent square subsystem
    rows = system.rows
    targets = system.targets()
    chosen = []
    basis = []
    for idx, row in enumerate(rows):
        if len(chosen) == n:
            break
        cand = _jacobian_row(row, zs)
        vec = cand[:]
        for b in basis:
            pivot_col, pivot_val = b
            f = vec[pivot_col] / pivot_val[pivot_col]
            vec = [x - f * y for x, y in zip(vec, pivot_val)]
        norm = max(abs(x) for x in vec)
        if norm > 1e-9:
            col = max(range(n), key=lambda k: abs(vec[k]))
            basis.append((col, vec))
            chosen.append(idx)
    if len(chosen) < n:
        raise NewtonError("gluing system rank %d < %d at the initial point"
                          % (len(chosen), n))

    worst = float("inf")
    for iteration in range(max_iter):
        residual = _log_residual(system, zs)
        worst = max(abs(r) for r in residual)
        if worst < tol:
            return ShapeAssignment(zs)
        sub = [_jacobian_row(rows[i], zs) for i in chosen]
        rhs = [-residual[i] for i in chosen]
        try:
            delta = _solve_complex(sub, rhs)
        except NewtonError:
            raise NewtonError("singular Jacobian at iteration %d"
                              % iteration)
        step = 1.0
        for t in range(n):
            zs[t] += delta[t]
            if zs[t] == 0 or zs[t] == 1:
                zs[t] += 1e-9j * step
    raise NewtonError("no convergence after %d iterations (residual %.3g)"
                      % (max_iter, worst))
