"""Exact scalar arithmetic: rationals, Q(sqrt(2)), and cyclotomic fields Q(zeta_n).

Cyclotomic values are kept in a canonical form so that equality of field
elements coincides with equality of the stored representation:

* the conductor is minimal (the element does not lie in any smaller
  cyclotomic field Q(zeta_d) with d dividing the working conductor), and
* the coefficients are the unique representation in the power basis
  1, zeta_n, ..., zeta_n^(phi(n)-1), i.e. reduced modulo the n-th
  cyclotomic polynomial.

``Cyclotomic.make`` finds that form for a sum of powers of zeta_n.  It
reduces the sum modulo Phi_n once, as a sparse vector, then descends one
prime at a time: for a prime p dividing n, with m = n / p, it tests whether
the value lies in Q(zeta_m) and, if so, rewrites it there.

* If p divides m, Phi_n(x) = Phi_m(x^p), and if m = 1 only the constant is
  rational: the value lies in Q(zeta_m) exactly when every reduced exponent
  is a multiple of p, and dividing them by p gives its reduced form at m.
* Otherwise zeta_n^e = zeta_p^x * zeta_m^y by the Chinese remainder theorem,
  and the normalized relative trace onto Q(zeta_m) maps it to zeta_m^y with
  weight 1 if x = 0 and -1/(p - 1) otherwise.  The trace fixes exactly
  Q(zeta_m), so the value lies there when the trace, written back at n and
  reduced, equals it (Washington, Introduction to Cyclotomic Fields, ch. 2).

Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the descent stops at
the least conductor whichever prime it takes first.

Rational numbers are plain ``fractions.Fraction`` everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _divmod_monic(num: list, den: tuple[int, ...]) -> tuple[list, list]:
    """Quotient and remainder of num by the monic integer polynomial den
    (coefficients ascending)."""
    rem = list(num)
    deg = len(den) - 1
    quot = [0] * (len(rem) - deg)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - deg] = c
        for j in range(deg):
            if den[j]:
                rem[i - deg + j] -= c * den[j]
    return quot, rem[:deg]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    # Phi_1 = x - 1; for a prime p dividing n, m = n / p, Phi_n(x) = Phi_m(x^p)
    # if p divides m, and Phi_m(x^p) / Phi_m(x), an exact division, if not.
    if n == 1:
        return (-1, 1)
    p = prime_factors(n)[0]
    m = n // p
    phi = cyclotomic_polynomial(m)
    lifted = [0] * (p * (len(phi) - 1) + 1)
    lifted[::p] = phi
    return tuple(lifted if m % p == 0 else _divmod_monic(lifted, phi)[0])


def _reduce(n: int, parts: dict[int, Fraction]) -> dict[int, Fraction]:
    """sum(parts[e] * zeta_n^e) reduced mod Phi_n: its nonzero coefficients
    in the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1), ascending."""
    dense = [Fraction(0)] * n
    for e, c in parts.items():
        dense[e % n] += c
    rem = _divmod_monic(dense, cyclotomic_polynomial(n))[1]
    return {e: c for e, c in enumerate(rem) if c}


@lru_cache(maxsize=None)
def _descents(n: int) -> tuple[tuple[int, int, int | None], ...]:
    """(p, m, p^-1 mod m) for each prime p dividing n, m = n / p; the inverse
    is None where p divides m or m is 1, as the support test needs none."""
    return tuple((p, n // p, None if n % (p * p) == 0 or n == p else pow(p, -1, n // p))
                 for p in prime_factors(n))


def _descend(n: int, v: dict[int, Fraction], p: int, m: int,
             p_inv: int | None) -> dict[int, Fraction] | None:
    """The reduced form at conductor m = n / p of the reduced form v at n, or
    None if the value does not lie in Q(zeta_m)."""
    if p_inv is None:
        if any(e % p for e in v):
            return None
        return {e // p: c for e, c in v.items()}
    # zeta_n^e = zeta_p^x * zeta_m^y with x = 0 iff p | e, and y = e / p mod m
    w = Fraction(-1, p - 1)
    trace: dict[int, Fraction] = {}
    for e, c in v.items():
        y = e * p_inv % m
        trace[y] = trace.get(y, 0) + (c if e % p == 0 else w * c)
    t = _reduce(m, trace)
    return t if _reduce(n, {y * p: c for y, c in t.items()}) == v else None


def _least_conductor(n: int, v: dict[int, Fraction]) -> tuple[int, tuple]:
    """The least conductor of the nonzero reduced form v at n, and the
    coefficients there: descend by any prime that keeps the value."""
    for p, m, p_inv in _descents(n):
        w = _descend(n, v, p, m, p_inv)
        if w is not None:
            return _least_conductor(m, w)
    return n, tuple(v.items())


_NUMERAL = re.compile(r"[0-9]+(/[0-9]+)?")
_ROOT = re.compile(r"z([0-9]+)(?:\^([0-9]+))?")
# A character of a group of order N takes values in Q(z_N), and the largest
# roster order is 1344; a larger parsed conductor would expand densely.
MAX_PARSED_CONDUCTOR = 1344


def signed_terms(text: str) -> list[tuple[Fraction, str]]:
    """Split a sum such as ``1/2*z3 - z3^2 + 3`` into (coefficient, atom) pairs.

    Spaces are ignored.  A term is a sign (optional on the first term), an
    optional numeral coefficient with ``*``, and an atom.  A numeral is
    ``digits`` or ``digits/digits``, the form signed_sum writes; exponent,
    decimal and underscore forms are not numerals.  A numeral atom is folded
    into the coefficient and returned as the empty atom; the caller
    interprets every other atom.  Malformed input, a zero denominator
    included, raises ValueError.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty expression")
    cuts = [0] + [i for i in range(1, len(s)) if s[i] in "+-"] + [len(s)]
    terms = []
    try:
        for term in (s[a:b] for a, b in zip(cuts, cuts[1:])):
            coeff = Fraction(-1 if term[0] == "-" else 1)
            atom = term[1:] if term[0] in "+-" else term
            if "*" in atom:
                head, atom = atom.split("*", 1)
                if not _NUMERAL.fullmatch(head):
                    raise ValueError(f"bad coefficient {head!r} in {text!r}")
                coeff *= Fraction(head)
            if not atom:
                raise ValueError(f"missing term in {text!r}")
            if _NUMERAL.fullmatch(atom):
                coeff, atom = coeff * Fraction(atom), ""
            terms.append((coeff, atom))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return terms


def signed_sum(terms: list[tuple[Fraction, str]]) -> str:
    """Render (coefficient, atom) pairs as ``1/2*z3 - z3^2 + 3``, the form
    signed_terms reads back; zero coefficients are skipped, the empty atom is
    the rational unit and the empty sum is ``0``."""
    out = ""
    for c, atom in terms:
        if not c:
            continue
        if not atom:
            body = str(abs(c))
        elif abs(c) == 1:
            body = atom
        else:
            body = f"{abs(c)}*{atom}"
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_conductor) in canonical (minimal, reduced) form.

    ``coeffs`` is a sorted sparse tuple of (exponent, Fraction) pairs with
    exponents below phi(conductor); the zero element has conductor 1 and no
    coefficients.  Instances are immutable and hashable; do not construct
    directly, use :meth:`make`, :meth:`root` or :meth:`from_rational`.
    """

    conductor: int
    coeffs: tuple[tuple[int, Fraction], ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(n: int, parts: dict[int, Fraction | int]) -> "Cyclotomic":
        """Canonical form of sum(parts[k] * zeta_n^k)."""
        if n < 1:
            raise ValueError("conductor must be positive")
        v = _reduce(n, parts)
        if not v:
            return Cyclotomic(1, ())
        return Cyclotomic(*_least_conductor(n, v))

    @staticmethod
    def root(k: int, n: int) -> "Cyclotomic":
        """zeta_n^k in canonical form."""
        return Cyclotomic.make(n, {k: 1})

    @staticmethod
    def from_rational(q: Fraction | int) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic(1, ((0, q),) if q else ())

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic(1, ())

    # -- queries -----------------------------------------------------------

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0][1] if self.coeffs else Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def _dense(self, n: int) -> dict[int, Fraction]:
        """Coefficients rescaled to conductor n (self.conductor must divide n)."""
        step = n // self.conductor
        return {(e * step) % n: c for e, c in self.coeffs}

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic.from_rational(self.rational_value() + other.rational_value())
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        parts = self._dense(n)
        for e, c in other._dense(n).items():
            parts[e] = parts.get(e, Fraction(0)) + c
        return Cyclotomic.make(n, parts)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic.from_rational(self.rational_value() * other.rational_value())
        if self.conductor == 1:
            q = self.rational_value()
            return Cyclotomic(other.conductor, tuple((e, q * c) for e, c in other.coeffs)) \
                if q else Cyclotomic.zero()
        if other.conductor == 1:
            return other * self
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        a = self._dense(n)
        b = other._dense(n)
        parts: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % n
                parts[e] = parts.get(e, Fraction(0)) + c1 * c2
        return Cyclotomic.make(n, parts)

    def scale(self, q: Fraction | int) -> "Cyclotomic":
        q = Fraction(q)
        if not q:
            return Cyclotomic.zero()
        return Cyclotomic(self.conductor, tuple((e, q * c) for e, c in self.coeffs))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta_n -> zeta_n^(-1)."""
        if self.conductor == 1:
            return self
        return Cyclotomic.make(self.conductor, {-e: c for e, c in self.coeffs})

    # -- rendering / parsing ------------------------------------------------

    def __str__(self) -> str:
        n = self.conductor
        return signed_sum([(c, "" if e == 0 else f"z{n}" if e == 1 else f"z{n}^{e}")
                           for e, c in self.coeffs])

    @staticmethod
    def parse(text: str) -> "Cyclotomic":
        """Parse the ``z{n}^{k}`` grammar ('1/2*z3 - 1/2*z3^2', '-2', 'z7^4')."""
        total = None
        for coeff, atom in signed_terms(text):
            if not atom:
                term = Cyclotomic.from_rational(coeff)
            elif root := _ROOT.fullmatch(atom):
                n, k = root.groups()
                if int(n) > MAX_PARSED_CONDUCTOR:
                    raise ValueError(f"conductor {n} exceeds {MAX_PARSED_CONDUCTOR}")
                term = Cyclotomic.root(int(k or 1), int(n)).scale(coeff)
            else:
                raise ValueError(f"bad cyclotomic term {atom!r}")
            total = term if total is None else total + term
        return total


@dataclass(frozen=True)
class QuadSqrt2:
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt(2))."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a: Fraction | int, b: Fraction | int = 0) -> "QuadSqrt2":
        return QuadSqrt2(Fraction(a), Fraction(b))

    def __add__(self, other: "QuadSqrt2") -> "QuadSqrt2":
        return QuadSqrt2(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "QuadSqrt2":
        return QuadSqrt2(-self.a, -self.b)

    def __mul__(self, other: "QuadSqrt2") -> "QuadSqrt2":
        return QuadSqrt2(self.a * other.a + 2 * self.b * other.b,
                         self.a * other.b + self.b * other.a)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(2); exact."""
        if self.a == 0 and self.b == 0:
            return 0
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # a and b have opposite signs; compare a^2 with 2 b^2
        return 1 if (self.a * self.a > 2 * self.b * self.b) == (self.a > 0) else -1


QUAD_ZERO = QuadSqrt2.of(0)
QUAD_ONE = QuadSqrt2.of(1)
