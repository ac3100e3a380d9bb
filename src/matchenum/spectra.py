"""Kasteleyn-signed matrices, exact characteristic polynomials of K*K^T,
and floating-point singular values of K.

K is held as ``counting.signed_biadjacency`` makes it and ``det_bareiss``
takes it: one ``{column: value}`` dict per row, zeros not stored.  K*K^T
is ``counting._product`` of K's rows and K^T, the sparse product that
also steps the window operators of ``transfer``, so no dense K is formed;
the charpoly reads its sparse rows, and only the float QL step below
makes it dense.

The characteristic polynomial is computed over exact integers (every
division in the recurrence is exact), so the counting identity
|constant term| = (matching count)^2 can be asserted as integer equality.
The Faddeev-LeVerrier recurrence keeps each row of its m x m matrices as
one Python int whose m signed B-bit digits are the row's entries
(Kronecker substitution), so a matrix product is a few long-integer
additions per row.  B comes from a proved bound: the recurrence's
matrices are +-(positive semidefinite), so their entries are bounded by
their largest diagonal entries, and Maclaurin's inequality bounds those by
max_j C(m, j) (tr K*K^T / m)^j.
Floating point appears only in the singular values: eigenvalues of
K*K^T by Householder reduction to tridiagonal form and implicit-shift QL.
A SignedMatrix of more than SPECTRUM_DIMENSION_LIMIT rows is refused with
BoundError when it is made, and malformed rows as ``det_bareiss`` refuses
them; ``kasteleyn_matrix`` refuses a region with too large a K before the
orientation.
"""

from __future__ import annotations

import math
import operator

from .counting import (BoundError, Operator, _product, check_rows, kasteleyn_classes,
                       signed_biadjacency)
from .graphs import MatchGraph, Record

# K dimension; the charpoly of the (4,4,8) hexagon's K at 80 takes ~0.03 s on
# a 2-vCPU Xeon, that of a dense +-1 K at 80 ~1.2 s
SPECTRUM_DIMENSION_LIMIT = 80
QL_ITERATION_LIMIT = 60  # QL sweeps allowed per eigenvalue


class SignedMatrix(Record):
    """Signed biadjacency as sparse rows: rows one color class, columns
    the other, row i as ``{column: value}`` over its nonzeros, +-1 on
    edges per the Kasteleyn orientation.  Square: every column lies in
    range(dimension).  Refused past SPECTRUM_DIMENSION_LIMIT rows
    (BoundError), then as ``counting.check_rows`` refuses malformed rows
    (TypeError, ValueError).  A frozen ``Record``; its row dicts make it
    unhashable."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[dict[int, int], ...]):
        _check_dimension(len(rows))
        check_rows(rows)
        super().__init__(rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)


class CharPoly(Record):
    """det(lambda*I - A) as integer coefficients, constant term first.  A
    frozen, hashable ``Record``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]


def kasteleyn_matrix(g: MatchGraph, seed: int = 0) -> SignedMatrix:
    """Signed biadjacency whose |det| is the perfect matching count, held
    as ``signed_biadjacency``'s rows; refused past SPECTRUM_DIMENSION_LIMIT
    rows before any face is walked."""
    _check_dimension(len(kasteleyn_classes(g)[0]))
    return SignedMatrix(tuple(signed_biadjacency(g, seed)))


def _check_dimension(dimension: int) -> None:
    """Refuse a K of more than SPECTRUM_DIMENSION_LIMIT rows."""
    if dimension > SPECTRUM_DIMENSION_LIMIT:
        raise BoundError(
            f"K dimension {dimension} exceeds the spectrum limit "
            f"{SPECTRUM_DIMENSION_LIMIT}"
        )


def _digit_width(m: int, trace: int) -> int:
    """B for ``kk_star_charpoly``: one bit more than the bound on every
    entry of the recurrence for an m x m A = K*K^T of trace ``trace``."""
    return max(-(-math.comb(m, j) * trace**j // m**j)
               for j in range(m + 1)).bit_length() + 1


def _kk_star(k: SignedMatrix) -> list[dict[int, int]]:
    """K*K^T as one ``{column: value}`` dict per row, by the shared product
    of K's rows and K^T; an entry whose terms cancel is kept as 0."""
    kt: Operator = {}
    for i, row in enumerate(k.rows):
        for t, v in row.items():
            kt.setdefault(t, {})[i] = v
    a = _product(dict(enumerate(k.rows)), kt)
    return [a.get(i, {}) for i in range(k.dimension)]


def kk_star_charpoly(k: SignedMatrix) -> CharPoly:
    """Exact characteristic polynomial p of A = K*K^T.

    Faddeev-LeVerrier recurrence over the integers: c_m = 1 and M_1 = I,
    then for s = 1..m, c_{m-s} = -tr(A M_s) / s and
    M_{s+1} = A M_s + c_{m-s} I.  Every trace division is exact and
    asserted to be so, and M_{m+1} = p(A) is asserted to vanish
    (Cayley-Hamilton); either failure raises ArithmeticError.

    Row i of M_s is one Python int, sum_j M_s[i][j] * 2^(B*j), whose
    signed B-bit digits are the row's entries.  Integer addition is
    linear, so row i of A M_s is the sum over the nonzeros a_it of A's row
    i of a_it times packed row t, and the trace reads digit i of row i:
    ((r + H) >> (B*i)) & mask, minus half, where half = 2^(B-1) and H
    (``halves``) holds half in each of the m digits.

    The digit width B is proved wide enough.  A is positive
    semidefinite: A = sum_i lambda_i v_i v_i^T with lambda_i >= 0 and
    orthonormal v_i.  With c_{m-j} = (-1)^j e_j(lambda) and
    e_j(lambda) = e_j(lambda without lambda_i) + lambda_i e_{j-1}(lambda
    without lambda_i), the sum M_s = sum_{j<s} c_{m-j} A^(s-1-j)
    telescopes on each v_i to

        M_s   = (-1)^(s-1) sum_i e_{s-1}(lambda without lambda_i) v_i v_i^T,
        A M_s = (-1)^(s-1) sum_i lambda_i e_{s-1}(lambda without lambda_i) v_i v_i^T,

    so both are +-(positive semidefinite).  An entry of a semidefinite P
    obeys |P_tu| <= sqrt(P_tt P_uu), at most its largest diagonal entry.
    A diagonal entry of M_s is, up to sign, a convex combination
    (sum_i v_i[t]^2 = 1) of the e_{s-1}(lambda without lambda_i), each at
    most e_{s-1}(lambda) as lambda >= 0; one of A M_s is one of the
    lambda_i e_{s-1}(lambda without lambda_i), each at most e_s(lambda).
    Maclaurin's inequality bounds e_j(lambda) <= C(m, j) (tr A / m)^j, so
    every entry of M_s and of A M_s, s <= m, is at most
    max_j ceil(C(m, j) (tr A)^j / m^j) in absolute value.  With B one bit
    more than that bound (``_digit_width``) every entry d has |d| < half,
    so the digits d + half of r + H lie in [0, 2^B) and are read without
    carry.  Maclaurin's inequality is an
    equality when every eigenvalue is equal, as for K = c*I.
    """
    a = _kk_star(k)
    m = len(a)
    width = _digit_width(m, sum(row.get(i, 0) for i, row in enumerate(a)))
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    shifts = range(0, width * m, width)
    halves = sum(half << sh for sh in shifts)
    # A's row i as the columns of its +1 and -1 entries, whose packed rows
    # are added or subtracted without a multiply, and its other nonzeros
    plus = [[t for t, v in row.items() if v == 1] for row in a]
    minus = [[t for t, v in row.items() if v == -1] for row in a]
    other = [[(t, v) for t, v in row.items() if v not in (-1, 0, 1)] for row in a]
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    mat = [1 << sh for sh in shifts]  # M_1 = I
    for step in range(1, m + 1):
        prod = []  # A @ M_step
        for i in range(m):
            r = 0
            for t in plus[i]:
                r += mat[t]
            for t in minus[i]:
                r -= mat[t]
            for t, v in other[i]:
                r += v * mat[t]
            prod.append(r)
        tr = sum((((r + halves) >> sh) & mask) - half for r, sh in zip(prod, shifts))
        c, rem = divmod(-tr, step)
        if rem:
            raise ArithmeticError("trace division in the recurrence not exact")
        coeffs[m - step] = c
        mat = [r + (c << sh) for r, sh in zip(prod, shifts)]
    if any(mat):
        raise ArithmeticError("Cayley-Hamilton check failed: p(K K^T) is not zero")
    return CharPoly(tuple(coeffs))


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of the symmetric ``a`` to tridiagonal form,
    eigenvalues only (no transform is accumulated); ``a`` is consumed.

    Returns the diagonal d and the off-diagonal e, where e[i] couples
    d[i] and d[i + 1] and e[n - 1] = 0.  Row i is reflected onto column
    i - 1, last row first, so the active block is always the leading
    i x i one.
    """
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        d[i] = a[i][i]
        x = a[i][:i]
        scale = sum(map(abs, x))
        if i == 1 or scale == 0.0:
            e[i - 1] = x[-1]
            continue
        u = [v / scale for v in x]
        h = sum(v * v for v in u)
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g  # |u|^2 / 2 once u[-1] becomes f - g
        u[-1] = f - g
        # A <- P A P with P = I - u u^T / h, as a rank-two update
        p = [sum(map(operator.mul, a[j], u)) / h for j in range(i)]
        half = sum(map(operator.mul, u, p)) / (h + h)
        q = [pj - half * uj for pj, uj in zip(p, u)]
        for j in range(i):  # grouped so that a stays exactly symmetric
            uj, qj = u[j], q[j]
            a[j] = [ajk - (uj * qk + qj * uk) for ajk, uk, qk in zip(a[j], u, q)]
    if n:
        d[0] = a[0][0]
    return d, e


def _tridiagonal_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e) by QL iteration with
    implicit Wilkinson shifts (Bowdler, Martin, Reinsch and Wilkinson 1968).

    ``d`` and ``e`` are laid out as ``_tridiagonalize`` returns them and
    are consumed.  Raises ArithmeticError when an eigenvalue takes more
    than QL_ITERATION_LIMIT sweeps instead of returning a partial result.
    """
    n = len(d)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            if iterations == QL_ITERATION_LIMIT:
                raise ArithmeticError(
                    f"QL iteration did not converge in {QL_ITERATION_LIMIT} sweeps"
                )
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the rotation underflowed: split here, sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def singular_values(k: SignedMatrix) -> list[float]:
    """Singular values of K in descending order: the square roots of the
    eigenvalues of K*K^T, by Householder tridiagonalization and implicit
    QL.  Their product equals the matching count up to floating round-off.
    """
    a = [[float(row.get(j, 0)) for j in range(k.dimension)] for row in _kk_star(k)]
    eigs = _tridiagonal_eigenvalues(*_tridiagonalize(a))
    return sorted((math.sqrt(max(e, 0.0)) for e in eigs), reverse=True)
