"""Exact length values of the form p + q*sqrt(n).

Generator lengths in the built-in algebras are rational except for the
cross chords of the spaced unlink, whose length is sqrt(z^2 + 4).  Window
membership (length < a) must be decided exactly, so lengths are kept as
quadratic surds p + q*sqrt(n) with rational p, q and a square-free integer
radicand, and compared exactly by ``below_bound``.  Values with a common
radicand form a ring, which covers every word-length sum that occurs here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt


# Largest radicand a surd may carry.  Making one square-free trial-divides
# up to its square root, 10^6 steps at this bound.
MAX_RADICAND = 10**12


class IncompatibleRadicals(ValueError):
    """Sum/comparison of surds over different radicands is not supported."""


def below_bound(p, q, pa, qa, n: int) -> bool:
    """Exact test p + q*sqrt(n) < pa + qa*sqrt(n), for rational parts.

    The one comparison of such values: ``Surd`` compares and signs through
    it, and ``free_dga`` runs it on integer-scaled lengths.
    """
    dp, dq = pa - p, qa - q
    if dq == 0:
        return dp > 0
    if dp == 0:
        return dq > 0
    if dp > 0 and dq > 0:
        return True
    if dp < 0 and dq < 0:
        return False
    # Opposite signs: compare dp^2 with dq^2 n; equality is impossible for
    # square-free n > 1.
    lhs, rhs = dp * dp, dq * dq * n
    if dp > 0:
        return lhs > rhs
    return lhs < rhs


def _squarefree(n: int) -> tuple[int, int]:
    """Return (m, s) with n = s^2 * m and m square-free."""
    s = 1
    i = 2
    while i * i <= n:
        sq = i * i
        while n % sq == 0:
            n //= sq
            s *= i
        i += 1
    return n, s


class Surd:
    """Exact value p + q*sqrt(n); collapses to a rational when possible."""

    __slots__ = ("p", "q", "n")

    def __init__(self, p=0, q=0, n: int = 0):
        p = Fraction(p)
        q = Fraction(q)
        n = int(n)
        if n < 0:
            raise ValueError("negative radicand")
        if q != 0 and n > 1:
            if n > MAX_RADICAND:
                raise ValueError(f"radicand {n} is above {MAX_RADICAND}")
            m, s = _squarefree(n)
            q, n = q * s, m
        if n <= 1:
            p, q, n = p + q * n, Fraction(0), 0
        if q == 0:
            n = 0
        self.p, self.q, self.n = p, q, n

    @classmethod
    def of(cls, value) -> "Surd":
        if isinstance(value, Surd):
            return value
        return cls(Fraction(value))

    @classmethod
    def sqrt(cls, value) -> "Surd":
        """Exact square root of a nonnegative rational."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("sqrt of negative rational")
        num, den = value.numerator, value.denominator
        root = isqrt(den)
        if root * root == den:  # sqrt(num / root^2) = sqrt(num) / root
            return cls(0, Fraction(1, root), num)
        return cls(0, Fraction(1, den), num * den)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * self.n ** 0.5

    def _compatible(self, other: "Surd") -> int:
        if self.q == 0 or other.q == 0 or self.n == other.n:
            return max(self.n, other.n)
        raise IncompatibleRadicals(f"sqrt({self.n}) vs sqrt({other.n})")

    def __add__(self, other):
        other = Surd.of(other)
        n = self._compatible(other)
        return Surd(self.p + other.p, self.q + other.q, n)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.n)

    def __sub__(self, other):
        return self + (-Surd.of(other))

    def __rsub__(self, other):
        return (-self) + Surd.of(other)

    def __mul__(self, other):
        other = Surd.of(other)
        n = self._compatible(other)
        return Surd(
            self.p * other.p + self.q * other.q * n,
            self.p * other.q + self.q * other.p,
            n,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        # The sign of (p + q*sqrt(n)) * p.denominator * q.denominator, in integers.
        p = self.p.numerator * self.q.denominator
        q = self.q.numerator * self.p.denominator
        return below_bound(0, 0, p, q, self.n) - below_bound(p, q, 0, 0, self.n)

    def __eq__(self, other) -> bool:
        try:
            other = Surd.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.p, self.q, self.n) == (other.p, other.q, other.n)

    def __hash__(self):
        if self.is_rational:
            return hash(self.p)
        return hash((self.p, self.q, self.n))

    def __lt__(self, other):
        other = Surd.of(other)
        return below_bound(self.p, self.q, other.p, other.q, self._compatible(other))

    def __le__(self, other):
        return not Surd.of(other) < self

    def __gt__(self, other):
        return Surd.of(other) < self

    def __ge__(self, other):
        return not self < other

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.p)
        root = f"sqrt({self.n})"
        if self.q == 1:
            qpart = root
        elif self.q == -1:
            qpart = f"-{root}"
        else:
            qpart = f"{self.q}*{root}"
        if self.p == 0:
            return qpart
        sign = "+" if self.q > 0 else ""
        return f"{self.p}{sign}{qpart}"

    __repr__ = __str__


_SURD_RE = re.compile(
    r"^\s*(?:(?P<p>[+-]?\d+(?:/\d+)?)\s*)?"
    r"(?:(?P<sign>[+-])?\s*(?:(?P<q>\d+(?:/\d+)?)\s*\*\s*)?sqrt\((?P<n>\d+)\))?\s*$"
)


def parse_length(text) -> Surd:
    """Parse 'p', 'p/q', 'sqrt(n)', 'q*sqrt(n)' or 'p+q*sqrt(n)'; an int reads as 'p'."""
    m = _SURD_RE.match(str(text))
    if not m or (m.group("p") is None and m.group("n") is None):
        raise ValueError(f"cannot parse length value {text!r}")
    p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
    if m.group("n") is None:
        return Surd(p)
    q = Fraction(m.group("q")) if m.group("q") else Fraction(1)
    if m.group("sign") == "-":
        q = -q
    return Surd(p, q, int(m.group("n")))
