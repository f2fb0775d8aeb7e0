"""Exact cyclotomic arithmetic for character values.

An element of Q(zeta_N) is a coordinate vector of length phi(N) in the power
basis zeta^0..zeta^{phi(N)-1}, reduced modulo the N-th cyclotomic polynomial.
Mixed-conductor arithmetic lifts both operands to the lcm conductor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd


class CyclotomicError(ValueError):
    pass


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


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
    """x^e mod Phi_n for 0 <= e <= 2n, as tuples of Fractions of length phi(n)."""
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1  # = phi(n)
    table = []
    cur = [Fraction(0)] * deg
    if deg > 0:
        cur[0] = Fraction(1)
    table.append(tuple(cur))
    for _ in range(2 * n):
        nxt = [Fraction(0)] * (deg + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = c
        overflow = nxt[deg]
        if overflow:
            for i in range(deg):
                nxt[i] -= overflow * poly[i]
        cur = nxt[:deg]
        table.append(tuple(cur))
    return tuple(table)


class Cyclotomic:
    """An element of Q(zeta_N) in the reduced power basis."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor, coords):
        self.conductor = int(conductor)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != phi(self.conductor):
            raise CyclotomicError(
                f"expected {phi(self.conductor)} coordinates at conductor {self.conductor}, "
                f"got {len(coords)}"
            )
        self.coords = coords

    @staticmethod
    def zero(conductor=1):
        return Cyclotomic(conductor, [0] * phi(conductor))

    @staticmethod
    def rational(q, conductor=1):
        coords = [Fraction(0)] * phi(conductor)
        coords[0] = Fraction(q)
        return Cyclotomic(conductor, coords)

    @staticmethod
    def root(conductor, power=1):
        """zeta_conductor ** power."""
        table = _power_table(conductor)
        return Cyclotomic(conductor, table[power % conductor])

    def lift(self, conductor):
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise CyclotomicError(
                f"cannot lift conductor {self.conductor} to {conductor}"
            )
        step = conductor // self.conductor
        table = _power_table(conductor)
        out = [Fraction(0)] * phi(conductor)
        for k, c in enumerate(self.coords):
            if c:
                for i, t in enumerate(table[k * step]):
                    out[i] += c * t
        return Cyclotomic(conductor, out)

    def _common(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._common(other)
        return Cyclotomic(a.conductor, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-x for x in self.coords])

    def __sub__(self, other):
        a, b = self._common(other)
        return Cyclotomic(a.conductor, [x - y for x, y in zip(a.coords, b.coords)])

    def __mul__(self, other):
        a, b = self._common(other)
        n = a.conductor
        if all(x == 0 for x in a.coords[1:]):
            return Cyclotomic(n, [a.coords[0] * y for y in b.coords])
        if all(y == 0 for y in b.coords[1:]):
            return Cyclotomic(n, [x * b.coords[0] for x in a.coords])
        table = _power_table(n)
        out = [Fraction(0)] * phi(n)
        for i, x in enumerate(a.coords):
            if x == 0:
                continue
            for j, y in enumerate(b.coords):
                if y == 0:
                    continue
                xy = x * y
                for k, t in enumerate(table[i + j]):
                    if t:
                        out[k] += xy * t
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        return a.coords == b.coords

    def __hash__(self):
        return hash((self.conductor, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self):
        if not self.is_rational():
            raise CyclotomicError(f"{self} is not rational")
        return self.coords[0]

    def __repr__(self):
        return f"Cyclotomic({format_cyclotomic(self)})"


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
