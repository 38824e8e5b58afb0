"""
Exact Gaussian-rational arithmetic, projective points over it, and 2x2
Moebius transformations.  Used for gluing-equation verification and exact
developing-map computations.
"""
from fractions import Fraction


class GaussianRational:
    """a + b*i with rational a, b; field operations are exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_gaussian(other))

    def __rsub__(self, other):
        return as_gaussian(other) + (-self)

    def __mul__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        other = as_gaussian(other)
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conjugate()
        return GaussianRational(num.re / n, num.im / n)

    def __rtruediv__(self, other):
        return as_gaussian(other) / self

    def __eq__(self, other):
        try:
            other = as_gaussian(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals the int or Fraction it holds, so it hashes
        # as its real part, as complex does
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return format_gaussian(self)

    def __repr__(self):
        return "GaussianRational(%s)" % format_gaussian(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError("cannot coerce %r to GaussianRational" % (value,))


def parse_gaussian(text):
    """
    Parse exact complex numbers like "2*i", "-1+2*i", "3/5+1/5*i", "-1",
    "1/2-1/2*i".  The "*" before i is optional.
    """
    s = text.strip().replace(" ", "").replace("*i", "i")
    if not s:
        raise ValueError("empty number")
    # split into signed terms
    terms = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/*":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    re = Fraction(0)
    im = Fraction(0)
    for term in terms:
        if term.endswith("i"):
            body = term[:-1]
            if body in ("", "+", "-"):
                body += "1"
            im += Fraction(body)
        else:
            re += Fraction(term)
    return GaussianRational(re, im)


def format_gaussian(z):
    if z.im == 0:
        return str(z.re)
    imag = "%s*i" % z.im if abs(z.im) != 1 else ("i" if z.im > 0 else "-i")
    if z.re == 0:
        return imag
    return "%s%s%s" % (z.re, "" if imag.startswith("-") else "+", imag)


class ProjectivePoint:
    """A point of the projective line over the Gaussian rationals, stored
    as a canonical pair (z, 1) or (1, 0) for infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = as_gaussian(x), as_gaussian(y)
        if not x and not y:
            raise ValueError("(0 : 0) is not a projective point")
        if y:
            x, y = x / y, ONE
        else:
            x, y = ONE, ZERO
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    @property
    def is_infinity(self):
        return not self.y

    def value(self):
        if self.is_infinity:
            raise ValueError("point at infinity has no affine value")
        return self.x

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint)
                and self.x == other.x and self.y == other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "oo" if self.is_infinity else format_gaussian(self.x)


INFINITY = ProjectivePoint(ONE, ZERO)


def point(value):
    return ProjectivePoint(as_gaussian(value), ONE)


def det2(p, q):
    """The determinant pairing x_p y_q - x_q y_p."""
    return p.x * q.y - q.x * p.y


def cross_ratio_shape(p0, p1, p2, p3):
    """
    The shape parameter at the {p0 p1} edge of an ideal tetrahedron with
    the given vertex positions: normalise p0 to 0, p1 to oo and p3 to 1,
    and read off the position of p2.  With this convention the slot
    orderings (0,1,2,3), (0,2,3,1), (0,3,1,2) measure z, 1/(1-z), 1-1/z.
    """
    num = det2(p2, p0) * det2(p3, p1)
    den = det2(p2, p1) * det2(p3, p0)
    if not den:
        raise ZeroDivisionError("degenerate tetrahedron positions")
    return num / den


def fourth_vertex(slot_positions, z):
    """
    Given three of (p0, p1, p2, p3) with exactly one None, solve for the
    missing position from the shape relation cross_ratio_shape(...) = z.
    """
    missing = [k for k, p in enumerate(slot_positions) if p is None]
    if len(missing) != 1:
        raise ValueError("exactly one position must be unknown")
    k = missing[0]

    def eval_with(u):
        ps = list(slot_positions)
        ps[k] = u
        num = det2(ps[2], ps[0]) * det2(ps[3], ps[1])
        den = det2(ps[2], ps[1]) * det2(ps[3], ps[0])
        return num - z * den

    # linear in the missing point (x : y): alpha * x + beta * y = 0
    alpha = eval_with(INFINITY)
    beta = eval_with(point(0))
    return ProjectivePoint(-beta, alpha)


class Moebius:
    """A fractional linear map with Gaussian-rational matrix entries."""

    def __init__(self, a, b, c, d):
        self.a, self.b = as_gaussian(a), as_gaussian(b)
        self.c, self.d = as_gaussian(c), as_gaussian(d)
        if not (self.a * self.d - self.b * self.c):
            raise ValueError("singular Moebius matrix")

    def __call__(self, p):
        return ProjectivePoint(self.a * p.x + self.b * p.y,
                               self.c * p.x + self.d * p.y)

    def compose(self, other):
        """self after other."""
        return Moebius(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self):
        return Moebius(self.d, -self.b, -self.c, self.a)

    def is_identity(self):
        return (self.b == ZERO and self.c == ZERO and self.a == self.d)

    def is_parabolic(self):
        """Parabolic or the identity: trace^2 = 4 det."""
        tr = self.a + self.d
        det = self.a * self.d - self.b * self.c
        return tr * tr == 4 * det

    def parabolic_fixed_point(self):
        if not self.is_parabolic():
            raise ValueError("not parabolic")
        if self.c:
            return ProjectivePoint((self.a - self.d) / 2, self.c)
        return INFINITY

    def __repr__(self):
        return "Moebius([[%s, %s], [%s, %s]])" % tuple(
            format_gaussian(v) for v in (self.a, self.b, self.c, self.d))


def _to_standard(p0, p1, p2):
    """The Moebius map sending (p0, p1, p2) to (0, 1, oo)."""
    d12 = det2(p1, p2)
    d10 = det2(p1, p0)
    return Moebius(p0.y * d12, -p0.x * d12, p2.y * d10, -p2.x * d10)


def moebius_from_triples(source, target):
    """The unique Moebius map carrying three distinct source points to
    three distinct target points, in order."""
    return _to_standard(*target).inverse().compose(_to_standard(*source))


def moebius_between(points_a, points_b):
    """The Moebius map sending the first tuple to the second, or None if
    no single map matches every position."""
    m = moebius_from_triples(points_a[:3], points_b[:3])
    for p, q in zip(points_a[3:], points_b[3:]):
        if m(p) != q:
            return None
    return m
