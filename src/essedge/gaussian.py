"""
Exact Gaussian-rational arithmetic: the field of shapes that gluing-equation
verification checks.  The flat-cluster development works on the rational
projective line instead (develop.py), since every flat shape is real.
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


ONE = GaussianRational(1)


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
    try:
        for term in terms:
            if term.endswith("i"):
                body = term[:-1]
                if body in ("", "+", "-"):
                    body += "1"
                im += Fraction(body)
            else:
                re += Fraction(term)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
    return GaussianRational(re, im)


def format_gaussian(z):
    if z.im == 0:
        return str(z.re)
    imag = "%s*i" % z.im if abs(z.im) != 1 else ("i" if z.im > 0 else "-i")
    if z.re == 0:
        return imag
    return "%s%s%s" % (z.re, "" if imag.startswith("-") else "+", imag)
