"""Exact scalar arithmetic: rationals, Q(sqrt(2)), and cyclotomic fields Q(zeta_n).

Cyclotomic values are kept in a canonical form so that equality of field
elements coincides with equality of the stored representation:

* the conductor is minimal (the element does not lie in any smaller
  cyclotomic field Q(zeta_d) with d dividing the working conductor), and
* the coefficients are the unique representation in the power basis
  1, zeta_n, ..., zeta_n^(phi(n)-1), i.e. reduced modulo the n-th
  cyclotomic polynomial.

``Cyclotomic.make`` finds that form for a sum of powers of zeta_n.  It
reduces the sum modulo Phi_n, then tries the proper divisors d of n in
ascending order: the first d for which the reduced vector solves as a
rational combination of 1, zeta_d, ..., zeta_d^(phi(d)-1) (with
zeta_d = zeta_n^(n/d)) is the conductor, and the solution gives the
coefficients.  The solve is consistent exactly when the value lies in
Q(zeta_d), and Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the
first such d is the minimal conductor.  If no proper divisor solves, the
conductor is n.  ``Cyclotomic.root`` writes a single root of unity in that
form directly, from its order.

Rational numbers are plain ``fractions.Fraction`` everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


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
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact polynomial division.
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
        if any(rem):
            raise AssertionError("non-exact polynomial division")
    return tuple(num)


def _reduce_mod_phi(n: int, dense: list[Fraction]) -> list[Fraction]:
    """Reduce a coefficient vector over 1..zeta_n^(len-1) to degree < phi(n)."""
    return _divmod_monic(dense, cyclotomic_polynomial(n))[1]


@lru_cache(maxsize=None)
def _subfield_basis(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns: zeta_d^j (j < phi(d)) written in the power basis of zeta_n."""
    cols = []
    step = n // d
    for j in range(euler_phi(d)):
        dense = [Fraction(0)] * n
        dense[(step * j) % n] = Fraction(1)
        cols.append(tuple(_reduce_mod_phi(n, dense)))
    return tuple(cols)


def _solve_in_subfield(n: int, d: int, vec: list[Fraction]) -> list[Fraction] | None:
    """Solve vec = sum c_j * zeta_d^j in the zeta_n power basis, or None."""
    cols = _subfield_basis(n, d)
    rows = euler_phi(n)
    k = len(cols)
    aug = [[cols[j][i] for j in range(k)] + [vec[i]] for i in range(rows)]
    piv = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv):
        sol[c] = aug[i][k]
    # consistency: rows beyond the pivots must have zero RHS
    for i in range(r, rows):
        if aug[i][k] != 0:
            return None
    return sol


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
        dense = [Fraction(0)] * n
        for e, c in parts.items():
            dense[e % n] += Fraction(c)
        reduced = _reduce_mod_phi(n, dense)
        if not any(reduced):
            return Cyclotomic(1, ())
        for d in divisors(n)[:-1]:
            sol = _solve_in_subfield(n, d, reduced)
            if sol is not None:
                return Cyclotomic(d, tuple((e, c) for e, c in enumerate(sol) if c))
        return Cyclotomic(n, tuple((e, c) for e, c in enumerate(reduced) if c))

    @staticmethod
    def root(k: int, n: int) -> "Cyclotomic":
        """zeta_n^k in canonical form, without a subfield solve.

        zeta_n^k is a primitive d-th root of unity, d = n / gcd(n, k).  For
        d = 2m with m odd it is -zeta_m^((k' + m) / 2), k' = k / gcd(n, k),
        because zeta_d^m = -1; otherwise it generates Q(zeta_d), so d is the
        minimal conductor.  Either way one reduction mod Phi gives the
        canonical coefficients.
        """
        if n < 1:
            raise ValueError("conductor must be positive")
        g = gcd(n, k)
        d, e, sign = n // g, k // g, Fraction(1)
        if d % 4 == 2:
            d //= 2
            e, sign = (e + d) // 2, -sign
        if d == 1:
            return Cyclotomic.from_rational(sign)
        dense = [Fraction(0)] * d
        dense[e % d] = sign
        return Cyclotomic(d, tuple((i, c) for i, c in enumerate(_reduce_mod_phi(d, dense)) if c))

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
