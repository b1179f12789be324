"""Exact character tables and representation arithmetic.

Tables are computed with the Dixon-Schneider method: the class-sum
multiplication matrices are simultaneously diagonalized over a prime field
GF(p) with p = 1 (mod exponent), p > 2*floor(sqrt(|G|)) and p > the class
count r (so characteristic polynomials divide only by units).  Starting from
GF(p)^r, each class matrix in turn splits every subspace, kept as a reduced
echelon basis, into its eigenspaces until all are lines; those eigenvectors
are lifted back to exact cyclotomic character values through discrete
logarithms against a fixed primitive root.  Every table is checked against
the row orthogonality relation before it is returned, exactly and without the
residues below: character values are algebraic integers, so each value is an
integer vector over the powers of zeta_e (e the group exponent), each row
pair's sum is an integer polynomial mod x^e - 1, and its remainder mod Phi_e
must be the expected constant.  The column relation follows from the row
relation for a square table, so it is not evaluated (see _check_table).

A table keeps each row's values mod p (``CharacterTable.residues``), the
image of the exact row under one ring map Z[zeta_e] -> GF(p).  Tensor-product
multiplicities and Frobenius-Schur indicators are computed there (Dixon
1967): p does not divide |G| because p = 1 (mod exponent), so |G|^-1 exists
mod p; an integer m with 0 <= m <= floor(sqrt|G|) < p/2 is its own residue
mod p, and an indicator in {-1, 0, 1} is read from the residue p - 1, 0 or 1.
Inner products, decompositions of arbitrary class functions and branching
matrices stay exact over the cyclotomics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

from .groups import Group
from .scalars import Cyclotomic, _divmod_monic, cyclotomic_polynomial, prime_factors

Matrix = list[list[int]]


class SplitFailure(RuntimeError):
    """The class matrices failed to separate all eigenspaces (a bug if raised)."""


# -- small number theory ----------------------------------------------------

def dixon_prime(exponent: int, order: int, classes: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*floor(sqrt(order)) and
    p > classes, so that every k <= classes is a unit mod p."""
    bound = max(2 * isqrt(order), classes)
    p = exponent + 1
    while p <= bound or prime_factors(p) != [p]:
        p += exponent
        if p > 10**7:
            raise RuntimeError("no suitable Dixon prime found")
    return p


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p."""
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise RuntimeError("no primitive root (p not prime?)")


# -- class algebra ----------------------------------------------------------

def class_algebra(group: Group) -> list[Matrix]:
    """The class matrices M_i, (M_i)[j][k] = a_ijk for the structure constants
    C_i * C_j = sum_k a_ijk C_k, so that M_i w = omega_i w for the
    class-function eigenvectors w (w_k = |C_k| chi(g_k) / chi(1))."""
    classes = group.classes
    r = len(classes)
    coeff = [[[0] * r for _ in range(r)] for _ in range(r)]
    class_of = group.class_of
    for k, ck in enumerate(classes):
        z = ck.representative
        for idx, x in enumerate(group.elements):
            i = class_of[idx]
            y = x.inverse() * z
            j = class_of[group.index[y]]
            coeff[i][j][k] += 1
    return coeff


# -- GF(p) linear algebra ----------------------------------------------------

def _echelon(vectors: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot columns, over GF(p)."""
    rows = [[x % p for x in v] for v in vectors]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _charpoly(mat: Matrix, p: int) -> list[int]:
    """Characteristic polynomial mod p (ascending), by Faddeev-LeVerrier,
    which divides by 1, ..., n and so needs p > n."""
    n = len(mat)
    coeffs = [1]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(mat[i][t] * m[t][j] for t in range(n)) % p for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) * pow(k, p - 2, p) % p
        coeffs.append(c)
        m = [[(am[i][j] + (c if i == j else 0)) % p for j in range(n)] for i in range(n)]
    return coeffs[::-1]


def _poly_roots(coeffs: list[int], p: int) -> list[int]:
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _nullspace(mat: Matrix, p: int) -> list[list[int]]:
    n = len(mat)
    rows, pivots = _echelon(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


def _combine(coords: list[int], rows: Matrix, p: int) -> list[int]:
    """The combination sum_t coords[t] * rows[t], mod p."""
    return [sum(c * x for c, x in zip(coords, col)) % p for col in zip(*rows)]


def _split(space: Matrix, mat: Matrix, p: int) -> list[Matrix]:
    """The eigenspaces of mat on the invariant subspace ``space``, each as a
    reduced echelon basis like ``space`` itself.  A vector of the subspace has
    its entries at the pivot columns as coordinates; in them the eigenspaces
    are the kernels of mat - lam for each root lam of the characteristic
    polynomial.  Raises SplitFailure if mat does not keep the subspace or is
    not diagonalizable on it."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in space]
    cols = []
    for b in space:
        image = [sum(m * x for m, x in zip(row, b)) % p for row in mat]
        coords = [image[c] for c in pivots]
        if _combine(coords, space, p) != image:
            raise SplitFailure("vector escapes an invariant subspace")
        cols.append(coords)
    restricted = [list(row) for row in zip(*cols)]
    eigenspaces = []
    for lam in _poly_roots(_charpoly(restricted, p), p):
        shifted = [[(x - (lam if a == b else 0)) % p for b, x in enumerate(row)]
                   for a, row in enumerate(restricted)]
        kernel = _nullspace(shifted, p)
        eigenspaces.append(_echelon([_combine(c, space, p) for c in kernel], p)[0])
    if sum(map(len, eigenspaces)) != len(space):
        raise SplitFailure("class matrix not diagonalizable over GF(p)")
    return eigenspaces


# -- character tables --------------------------------------------------------

@dataclass(frozen=True)
class CharacterRow:
    degree: int
    values: tuple[Cyclotomic, ...]


class CharacterTable:
    """Irreducible characters of a group, rows sorted by (degree, values).

    residues[i][k] is rows[i].values[k] mod prime, under the ring map
    Z[zeta_e] -> GF(prime) that sends zeta_e to z^((prime-1)/e) for the
    smallest primitive root z (e the group exponent)."""

    def __init__(self, group: Group, rows: tuple[CharacterRow, ...], prime: int,
                 residues: tuple[tuple[int, ...], ...]):
        self.group = group
        self.rows = rows
        self.prime = prime
        self.residues = residues

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.degree for row in self.rows)


def character_table(group: Group) -> CharacterTable:
    r = len(group.classes)
    matrices = class_algebra(group)
    p = dixon_prime(group.exponent, group.order, r)

    spaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for mat in matrices[1:]:
        spaces = [eigenspace for space in spaces
                  for eigenspace in (_split(space, mat, p) if len(space) > 1 else [space])]
    if any(len(space) != 1 for space in spaces):
        raise SplitFailure("common eigenspaces did not all reach dimension 1")

    lifted = {}
    for (w,) in spaces:
        if w[0] != 1:  # an echelon row is 1 at its pivot, so w[0] is 0 here
            raise SplitFailure("eigenvector vanishes at the identity class")
        row, residues = _lift_row(group, w, p)
        key = (row.degree, tuple(str(v) for v in row.values))
        if key in lifted:
            raise SplitFailure("duplicate character row")
        lifted[key] = (row, residues)
    ordered = [lifted[key] for key in sorted(lifted)]
    table = CharacterTable(group, tuple(row for row, _ in ordered), p,
                           tuple(residues for _, residues in ordered))
    _check_table(table)
    return table


def _lift_row(group: Group, w: list[int], p: int) -> tuple[CharacterRow, tuple[int, ...]]:
    """The row of the eigenvector w (w[0] = 1), and its values mod p."""
    classes = group.classes
    r = len(classes)
    # |G| / d^2 = sum_k w_k w_{k-bar} / |C_k|  (second orthogonality for omega)
    s = sum(w[k] * w[kbar] * pow(cls.size, p - 2, p)
            for k, (cls, kbar) in enumerate(zip(classes, group.power_map(-1)))) % p
    d_sq = (group.order * pow(s, p - 2, p)) % p
    degree = next((d for d in range(1, isqrt(group.order) + 1) if d * d % p == d_sq), None)
    if degree is None:
        raise SplitFailure("no integer degree matches the eigenvector")
    chi_mod = [(degree * w[k] * pow(classes[k].size, p - 2, p)) % p for k in range(r)]

    z = primitive_root(p)
    values = []
    for k in range(r):
        m = classes[k].element_order
        if m == 1:
            values.append(Cyclotomic.from_rational(degree))
            continue
        powers = group.power_classes[k]
        theta = pow(z, (p - 1) // m, p)
        minv = pow(m, p - 2, p)
        parts: dict[int, Fraction] = {}
        total = 0
        for j in range(m):
            acc = 0
            for t in range(m):
                acc = (acc + chi_mod[powers[t]] * pow(theta, (-j * t) % (p - 1), p)) % p
            mult = (acc * minv) % p
            if mult > degree:
                raise SplitFailure("root-of-unity multiplicity exceeds the degree")
            if mult:
                parts[j] = Fraction(mult)
                total += mult
        if total != degree:
            raise SplitFailure("root-of-unity multiplicities do not sum to the degree")
        value = Cyclotomic.make(m, parts)
        if sum(c * pow(theta, x, p) for x, c in _exponent_vector(value, m)) % p != chi_mod[k]:
            raise SplitFailure("cyclotomic lift does not reduce back mod p")
        values.append(value)
    return CharacterRow(degree, tuple(values)), tuple(chi_mod)


def _check_table(table: CharacterTable) -> None:
    """Raise SplitFailure unless the degrees, identity values and conductors
    fit the group and the row orthogonality relation holds exactly, as integer
    polynomials read at zeta_e (see the module docstring).

    The column relation and the sum of squared degrees need no check of their
    own.  With r rows for r classes, X the r x r table and D = diag(|C_k|),
    the row relation X D X* = |G| I makes X invertible with inverse
    D X* / |G|, so X* X = |G| D^-1: the column relation (Isaacs, Character
    Theory of Finite Groups, ch. 2).  At the identity class it reads
    sum chi(1)^2 = |G|, and chi(1) is the degree by the identity-value check.
    """
    group = table.group
    classes = group.classes
    rows = table.rows
    if len(rows) != len(classes):
        raise SplitFailure("row count differs from class count")
    for row in rows:
        if group.order % row.degree != 0:
            raise SplitFailure("degree does not divide the group order")
        if not row.values[0].is_rational() or row.values[0].rational_value() != row.degree:
            raise SplitFailure("identity-class value differs from the degree")
        for k, v in enumerate(row.values):
            if classes[k].element_order % v.conductor != 0:
                raise SplitFailure("value conductor does not divide the element order")
    e = group.exponent
    phi = cyclotomic_polynomial(e)
    vectors = [[_exponent_vector(v, e) for v in row.values] for row in rows]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            total = [0] * e
            for cls, x, y in zip(classes, a, b):
                _add_conjugate_product(total, x, y, cls.size)
            if not _is_constant_mod_phi(total, phi, group.order if i == j else 0):
                raise SplitFailure("row orthogonality failed")


def _exponent_vector(value: Cyclotomic, e: int) -> tuple[tuple[int, int], ...]:
    """value as integer coefficients at exponents of zeta_e (its conductor
    divides e).  Canonical coefficients are integers exactly when the value is
    an algebraic integer, as a character value is; others raise SplitFailure."""
    step = e // value.conductor
    if any(c.denominator != 1 for _, c in value.coeffs):
        raise SplitFailure("value is not an algebraic integer")
    return tuple((x * step, c.numerator) for x, c in value.coeffs)


def _add_conjugate_product(total: list[int], a: tuple[tuple[int, int], ...],
                           b: tuple[tuple[int, int], ...], weight: int) -> None:
    """total += weight * a * conj(b) in Z[x]/(x^e - 1), e = len(total):
    zeta^x * conj(zeta^y) = zeta^(x - y)."""
    e = len(total)
    for x, c in a:
        for y, d in b:
            total[(x - y) % e] += weight * c * d


def _is_constant_mod_phi(total: list[int], phi: tuple[int, ...], constant: int) -> bool:
    """Whether total, read at zeta_e, equals constant: its remainder mod
    Phi_e is the canonical form, so it must be constant alone."""
    rem = _divmod_monic(total, phi)[1]
    return rem[0] == constant and not any(rem[1:])


# -- characters and representation arithmetic --------------------------------

def natural_character(group: Group) -> CharacterRow:
    """Trace of the defining signed-permutation representation, per class."""
    values = []
    for cls in group.classes:
        rep = cls.representative
        tr = sum(s for i, (j, s) in enumerate(zip(rep.image, rep.signs)) if j == i)
        values.append(Cyclotomic.from_rational(tr))
    return CharacterRow(group.degree, tuple(values))


def inner_product(chi: CharacterRow, psi: CharacterRow, group: Group) -> Fraction:
    """(1/|G|) sum_k |C_k| chi(k) conj(psi(k)); rational for class functions."""
    total = Cyclotomic.zero()
    for k, cls in enumerate(group.classes):
        term = chi.values[k] * psi.values[k].conjugate()
        total = total + term.scale(cls.size)
    if not total.is_rational():
        raise ValueError("inner product is not rational")
    return total.rational_value() / group.order


def decompose(chi: CharacterRow, table: CharacterTable) -> list[int]:
    """Multiplicities of chi against the irreducible rows of the table."""
    mults = []
    for row in table.rows:
        m = inner_product(chi, row, table.group)
        if m.denominator != 1 or m < 0:
            raise ValueError(f"non-integral multiplicity {m}")
        mults.append(int(m))
    if sum(m * row.degree for m, row in zip(mults, table.rows)) != chi.degree:
        raise ValueError("decomposition does not preserve the dimension")
    return mults


def tensor_decompose(table: CharacterTable, i: int, j: int) -> list[int]:
    """Decomposition of irrep_i (x) irrep_j as multiplicities over the table.

    Computed from the rows' residues mod the Dixon prime p:
    m_k = |G|^-1 sum_c |C_c| r_i[c] r_j[c] r_k[c^-1] mod p, summed here as
    sum_c u[c] r_k[c] with u[c] = |G|^-1 |C_c| r_i[c^-1] r_j[c^-1] (inversion
    permutes the classes and keeps their sizes).  The true m_k is an integer
    with 0 <= m_k <= min(d_i, d_j, d_k) <= floor(sqrt|G|) < p/2, so the residue
    is m_k itself.
    """
    group, p, residues = table.group, table.prime, table.residues
    degrees = table.degrees()
    if 2 * isqrt(group.order) >= p:
        raise ValueError(f"prime {p} does not exceed 2*floor(sqrt({group.order}))")
    ri, rj = residues[i], residues[j]
    scale = pow(group.order, -1, p)
    u = [cls.size * ri[c] * rj[c] * scale % p
         for cls, c in zip(group.classes, group.power_map(-1))]
    mults = [sum(map(mul, u, rk)) % p for rk in residues]
    bound = min(degrees[i], degrees[j])
    if any(m > min(bound, d) for m, d in zip(mults, degrees)):
        raise ValueError("tensor multiplicity exceeds the degree bound")
    if sum(m * d for m, d in zip(mults, degrees)) != degrees[i] * degrees[j]:
        raise ValueError("decomposition does not preserve the dimension")
    return mults


def class_fusion(parent: Group, child: Group) -> list[int]:
    """Parent class index containing each child class."""
    fusion = []
    for cls in child.classes:
        if cls.representative not in parent:
            raise ValueError("subgroup element not found in the parent group")
        fusion.append(parent.class_index(cls.representative))
    return fusion


def restrict_row(chi: CharacterRow, fusion: list[int]) -> CharacterRow:
    return CharacterRow(chi.degree, tuple(chi.values[k] for k in fusion))


def branch(parent_table: CharacterTable, child_table: CharacterTable) -> list[list[int]]:
    """Branching matrix: row i lists multiplicities of parent irrep i over the child."""
    fusion = class_fusion(parent_table.group, child_table.group)
    return [decompose(restrict_row(row, fusion), child_table) for row in parent_table.rows]


def frobenius_schur(table: CharacterTable, i: int) -> int:
    """The Frobenius-Schur indicator (1/|G|) sum_g chi_i(g^2), in {-1, 0, +1}.

    Computed from row i's residues mod the Dixon prime p, through the
    squaring power map: nu = |G|^-1 sum_c |C_c| r_i[c^2] mod p.  The sum
    |G| nu = sum_c |C_c| chi_i(g_c^2) holds in Z[zeta_e] and so under the
    table's ring map to GF(p); p does not divide |G|, and p > 2 keeps -1, 0
    and 1 apart, so the indicator is the residue read as -1, 0 or 1 from
    p - 1, 0 or 1.  Any other residue raises ValueError.
    """
    group, p = table.group, table.prime
    if p < 3:
        raise ValueError(f"prime {p} cannot tell the indicators -1 and 1 apart")
    ri = table.residues[i]
    total = sum(cls.size * ri[c] for cls, c in zip(group.classes, group.power_map(2)))
    nu = total * pow(group.order, -1, p) % p
    if nu not in (0, 1, p - 1):
        raise ValueError(f"Frobenius-Schur residue {nu} mod {p} is not -1, 0 or 1")
    return -1 if nu == p - 1 else nu
