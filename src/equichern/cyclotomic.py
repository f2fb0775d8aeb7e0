"""Exact cyclotomic arithmetic for character values.

An element of Q(zeta_N) is a coordinate vector of length phi(N) in the power
basis zeta^0..zeta^{phi(N)-1}, reduced modulo the N-th cyclotomic polynomial.
As in `qlinalg.RationalMatrix`, the coordinates are stored as a tuple of
integer numerators `num` over one positive denominator `den`, in lowest
terms, so equal elements of one conductor have equal storage and the
arithmetic runs on Python ints.  Phi_N is monic with integer coefficients,
so the power table of zeta_N^e in the basis is integral.  `coords` is the
`Fraction` view of the coordinates.  Mixed-conductor arithmetic lifts both
operands to the lcm conductor.

`weighted_sum` is the one kernel for character inner products: it sums
w * a * b over many terms as exponents of zeta at the lcm conductor in one
integer accumulator, and reduces modulo Phi_N once at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class CyclotomicError(ValueError):
    pass


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_exact(num, den):
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        coeff = num[i + len(den) - 1]
        if coeff % den[-1] != 0:
            raise CyclotomicError("non-exact polynomial division")
        q[i] = coeff // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    if any(num):
        raise CyclotomicError("nonzero remainder in exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise CyclotomicError("conductor must be >= 1")
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # x^n - 1
    for d in divisors(n):
        if d != n:
            num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n):
    """x^e mod Phi_n for 0 <= e <= 2n, as int tuples of length phi(n)."""
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1  # = phi(n)
    cur = (1,) + (0,) * (deg - 1)
    table = [cur]
    for _ in range(2 * n):
        overflow = cur[-1]
        cur = (0,) + cur[:-1]
        if overflow:
            cur = tuple(c - overflow * p for c, p in zip(cur, poly))
        table.append(cur)
    return tuple(table)


@lru_cache(maxsize=None)
def _trace_weights(n):
    """Tr(zeta_n^k) / phi(n) for k < phi(n).  The trace is the sum of the
    conjugates zeta_n^(jk), gcd(j, n) = 1; it is rational, so it is the sum
    of their first coordinates."""
    table = _power_table(n)
    units = [j for j in range(1, n + 1) if gcd(j, n) == 1]
    return tuple(
        Fraction(sum(table[j * k % n][0] for j in units), len(units)) for k in range(len(units))
    )


def _reduced(n, num, den):
    """The element num / den (den > 0) of Q(zeta_n) with the common factor
    cancelled."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    return Cyclotomic._of(n, num, den)


class Cyclotomic:
    """An element of Q(zeta_N) in the reduced power basis, stored as the
    tuple of integer numerators `num` over the positive denominator `den`."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor, coords):
        n = int(conductor)
        if n < 1:
            raise CyclotomicError(f"conductor must be >= 1, got {n}")
        coords = [c if type(c) is int else Fraction(c) for c in coords]
        if len(coords) != phi(n):
            raise CyclotomicError(
                f"expected {phi(n)} coordinates at conductor {n}, got {len(coords)}"
            )
        # the lcm of reduced denominators leaves the numerators in lowest terms
        den = lcm(*{c.denominator for c in coords if type(c) is not int})
        self.conductor = n
        self.num = tuple(
            c * den if type(c) is int else c.numerator * (den // c.denominator)
            for c in coords
        )
        self.den = den

    @classmethod
    def _of(cls, conductor, num, den=1):
        """Trusted constructor: `num` an int tuple of length phi(conductor)
        over den > 0, in lowest terms."""
        x = object.__new__(cls)
        x.conductor = conductor
        x.num = num
        x.den = den
        return x

    @property
    def coords(self):
        """The coordinates as `Fraction`s."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def zero(conductor=1):
        return Cyclotomic(conductor, [0] * phi(conductor))

    @staticmethod
    def rational(q, conductor=1):
        return Cyclotomic(conductor, [q] + [0] * (phi(conductor) - 1))

    @staticmethod
    def root(conductor, power=1):
        """zeta_conductor ** power."""
        if conductor < 1:
            raise CyclotomicError(f"conductor must be >= 1, got {conductor}")
        return Cyclotomic._of(conductor, _power_table(conductor)[power % conductor])

    def lift(self, conductor):
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise CyclotomicError(
                f"cannot lift conductor {self.conductor} to {conductor}"
            )
        step = conductor // self.conductor
        table = _power_table(conductor)
        out = [0] * phi(conductor)
        for k, c in enumerate(self.num):
            if c:
                for i, t in enumerate(table[k * step]):
                    if t:
                        out[i] += c * t
        # Z[zeta_m] is a direct summand of Z[zeta_n]: still in lowest terms
        return Cyclotomic._of(conductor, tuple(out), self.den)

    def _common(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._common(other)
        if a.den == b.den:
            return _reduced(a.conductor, tuple(x + y for x, y in zip(a.num, b.num)), a.den)
        da, db = a.den, b.den
        return _reduced(
            a.conductor, tuple(x * db + y * da for x, y in zip(a.num, b.num)), da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.conductor, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b = self._common(other)
        n = a.conductor
        table = _power_table(n)
        out = [0] * phi(n)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        xy = x * y
                        for k, t in enumerate(table[i + j]):
                            if t:
                                out[k] += xy * t
        return _reduced(n, tuple(out), a.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # Tr / phi(N) does not depend on the conductor and is the value of a
        # rational element, so equal elements and equal rationals hash alike
        weights = _trace_weights(self.conductor)
        trace = sum((w * x for w, x in zip(weights, self.num) if x), Fraction(0))
        return hash(trace / self.den)

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise CyclotomicError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"Cyclotomic({format_cyclotomic(self)})"


def weighted_sum(terms, den=1):
    """(1/den) * sum of w * a * b over the (w, a, b) in `terms`, for int
    weights w and `Cyclotomic` a, b, at the lcm conductor N of all of them.

    Each product is summed as exponents of zeta_N (below 2N) into one
    integer accumulator over the lcm of the coordinate denominators; the
    accumulator is reduced modulo Phi_N once, at the end.
    """
    terms = list(terms)
    n = lcm(1, *(x.conductor for _w, a, b in terms for x in (a, b)))
    common = lcm(1, *(a.den * b.den for _w, a, b in terms))
    acc = [0] * (2 * n)
    for w, a, b in terms:
        if not w:
            continue
        sa, sb = n // a.conductor, n // b.conductor
        scale = w * (common // (a.den * b.den))
        for i, x in enumerate(a.num):
            if x:
                xs, ei = x * scale, i * sa
                for j, y in enumerate(b.num):
                    if y:
                        acc[ei + j * sb] += xs * y
    table = _power_table(n)
    out = [0] * phi(n)
    for e, c in enumerate(acc):
        if c:
            for k, t in enumerate(table[e]):
                if t:
                    out[k] += c * t
    return _reduced(n, tuple(out), common * den)


def _format_term(q, n, k):
    if n == 1 or k == 0:
        return str(q)
    z = f"z({n})" if k == 1 else f"z({n})^{k}"
    if q == 1:
        return z
    if q == -1:
        return f"-{z}"
    return f"{q}*{z}"


def format_cyclotomic(x):
    """Render in the literal grammar `q`, `q*z(N)`, `q*z(N)^k` joined by +/-."""
    terms = [(q, x.conductor, k) for k, q in enumerate(x.coords) if q != 0]
    if not terms:
        return "0"
    parts = []
    for i, (q, n, k) in enumerate(terms):
        txt = _format_term(q, n, k)
        if i == 0:
            parts.append(txt)
        elif txt.startswith("-"):
            parts.append(" - " + txt[1:])
        else:
            parts.append(" + " + txt)
    return "".join(parts)


_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*)?      # optional rational coefficient
        (?:z\(\s*(?P<cond>\d+)\s*\)
           (?:\^(?P<pow>\d+))?)?                     # optional root of unity
        \s*$""",
    re.VERBOSE,
)


def parse_cyclotomic(text):
    """Parse the cyclotomic literal grammar (sums of `q`, `q*z(N)`, `q*z(N)^k`)."""
    s = text.strip()
    if not s:
        raise CyclotomicError("empty cyclotomic literal")
    # split into signed terms
    terms = []
    buf = ""
    sign = 1
    i = 0
    # normalize leading sign
    while i < len(s):
        ch = s[i]
        if ch in "+-" and buf.strip() and not buf.rstrip().endswith(("*", "^", "(")):
            terms.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-" and not buf.strip():
            sign = sign if ch == "+" else -sign
        else:
            buf += ch
        i += 1
    terms.append((sign, buf))
    total = Cyclotomic.zero(1)
    for sgn, term in terms:
        term = term.strip()
        if not term:
            raise CyclotomicError(f"bad cyclotomic literal {text!r}")
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("cond") is None):
            raise CyclotomicError(f"bad cyclotomic term {term!r} in {text!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise CyclotomicError(f"zero denominator in {term!r}") from None
        coef *= sgn
        if m.group("cond"):
            n = int(m.group("cond"))
            if n == 0:
                raise CyclotomicError(f"z(0) is not a root of unity, in {term!r}")
            k = int(m.group("pow") or 1)
            total = total + Cyclotomic.root(n, k) * Cyclotomic.rational(coef)
        else:
            total = total + Cyclotomic.rational(coef)
    return total
