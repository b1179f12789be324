"""Exact scalar arithmetic: rationals, Q(sqrt(2)), and cyclotomic fields Q(zeta_n).

Cyclotomic values are kept in a canonical form so that equality of field
elements coincides with equality of the stored representation:

* the conductor is minimal (the element does not lie in any smaller
  cyclotomic field Q(zeta_d) with d dividing the working conductor), and
* the coefficients are the unique representation in the power basis
  1, zeta_n, ..., zeta_n^(phi(n)-1), i.e. reduced modulo the n-th
  cyclotomic polynomial.

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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact polynomial division.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        den = cyclotomic_polynomial(d)
        num = _polydiv_exact(num, den)
    return tuple(num)


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        q = c // lead
        out[i - dd] = q
        for j, a in enumerate(den):
            num[i - dd + j] -= q * a
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, n + 1) if gcd(a, n) == 1)


def _reduce_mod_phi(n: int, dense: list[Fraction]) -> list[Fraction]:
    """Reduce a coefficient vector over 1..zeta_n^(len-1) to degree < phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for e in range(len(dense) - 1, deg - 1, -1):
        c = dense[e]
        if c == 0:
            continue
        dense[e] = Fraction(0)
        base = e - deg
        for j in range(deg):
            if phi[j]:
                dense[base + j] -= c * phi[j]
    return dense[:deg]


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


def _apply_galois(n: int, dense: list[Fraction], a: int) -> list[Fraction]:
    """zeta_n -> zeta_n^a on a reduced vector; result reduced again."""
    out = [Fraction(0)] * n
    for e, c in enumerate(dense):
        if c:
            out[(a * e) % n] += c
    return _reduce_mod_phi(n, out)


_NUMERAL = re.compile(r"[0-9]+(/[0-9]+)?")


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
        if n == 1:
            return Cyclotomic(1, ((0, dense[0]),) if dense[0] else ())
        reduced = _reduce_mod_phi(n, dense)
        return Cyclotomic._canonical(n, reduced)

    @staticmethod
    def _canonical(n: int, reduced: list[Fraction]) -> "Cyclotomic":
        if all(c == 0 for c in reduced):
            return Cyclotomic(1, ())
        for d in divisors(n):
            if d == n:
                break
            fixed = all(
                _apply_galois(n, list(reduced), a) == reduced
                for a in _units(n)
                if a != 1 and a % d == 1
            )
            if not fixed:
                continue
            sol = _solve_in_subfield(n, d, reduced)
            if sol is not None:
                return Cyclotomic(d, tuple((e, c) for e, c in enumerate(sol) if c))
        return Cyclotomic(n, tuple((e, c) for e, c in enumerate(reduced) if c))

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

    @staticmethod
    def one() -> "Cyclotomic":
        return Cyclotomic.from_rational(1)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple((e, -c) for e, c in self.coeffs))

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

    def galois(self, a: int) -> "Cyclotomic":
        """The automorphism zeta_n -> zeta_n^a (a coprime to the conductor)."""
        n = self.conductor
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not a unit modulo {n}")
        return Cyclotomic.make(n, {(a * e) % n: c for e, c in self.coeffs})

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta_n -> zeta_n^(-1)."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.conductor == 1:
            return Cyclotomic.from_rational(1 / self.rational_value())
        # multiply the remaining Galois conjugates; the full product is rational
        prod = Cyclotomic.one()
        for a in _units(self.conductor):
            if a != 1:
                prod = prod * self.galois(a)
        norm = (self * prod).rational_value()
        return prod.scale(1 / norm)

    # -- rendering / parsing ------------------------------------------------

    def __str__(self) -> str:
        n = self.conductor
        return signed_sum([(c, "" if e == 0 else f"z{n}" if e == 1 else f"z{n}^{e}")
                           for e, c in self.coeffs])

    @staticmethod
    def parse(text: str) -> "Cyclotomic":
        """Parse the ``z{n}^{k}`` grammar ('1/2*z3 - 1/2*z3^2', '-2', 'z7^4')."""
        total = Cyclotomic.zero()
        for coeff, atom in signed_terms(text):
            if not atom:
                term = Cyclotomic.from_rational(coeff)
            elif atom.startswith("z"):
                n_str, caret, k_str = atom[1:].partition("^")
                term = Cyclotomic.root(int(k_str) if caret else 1, int(n_str)).scale(coeff)
            else:
                raise ValueError(f"bad cyclotomic term {atom!r}")
            total = total + term
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

    def __sub__(self, other: "QuadSqrt2") -> "QuadSqrt2":
        return QuadSqrt2(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadSqrt2":
        return QuadSqrt2(-self.a, -self.b)

    def __mul__(self, other: "QuadSqrt2") -> "QuadSqrt2":
        return QuadSqrt2(self.a * other.a + 2 * self.b * other.b,
                         self.a * other.b + self.b * other.a)

    def conjugate(self) -> "QuadSqrt2":
        """The field conjugate a - b*sqrt(2)."""
        return QuadSqrt2(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2*b^2."""
        return self.a * self.a - 2 * self.b * self.b

    def inverse(self) -> "QuadSqrt2":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(2))")
        return QuadSqrt2(self.a / n, -self.b / n)

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

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        rad = "r2" if abs(self.b) == 1 else f"{abs(self.b)}*r2"
        if self.a == 0:
            return rad if self.b > 0 else f"-{rad}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {rad}"


QUAD_ZERO = QuadSqrt2.of(0)
QUAD_ONE = QuadSqrt2.of(1)

MU = Cyclotomic.root(1, 3)
MU_BAR = MU.conjugate()
ETA = Cyclotomic.root(1, 7) + Cyclotomic.root(2, 7) + Cyclotomic.root(4, 7)
ETA_BAR = ETA.conjugate()
