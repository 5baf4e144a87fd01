"""Exact integer arithmetic in the cyclotomic rings Z[zeta_e].

A sum Sum_k a_k zeta_e^k with integer a_k is folded into e buckets by
exponent mod e and reduced modulo the e-th cyclotomic polynomial, which
is monic; the result is its unique integer coefficient vector over the
power basis 1, z, ..., z^(phi(e)-1), so every equality test is exact.
"""

from __future__ import annotations

from functools import lru_cache


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (den monic), ascending coeffs."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int):
    """Coefficients (ascending) of the e-th cyclotomic polynomial."""
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divmod_int(num, cyclotomic_poly(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_terms(e: int):
    """(phi(e), the (j, d) with d != 0 the coefficient of x^j in the e-th
    cyclotomic polynomial, j below its degree phi(e))."""
    poly = cyclotomic_poly(e)
    deg = len(poly) - 1
    return deg, tuple((j, d) for j, d in enumerate(poly[:deg]) if d)


def reduce_folded(folded, e):
    """Reduce Sum_k folded[k] zeta_e^k (k = 0..e-1, integer coefficients)
    modulo the e-th cyclotomic polynomial, in place; returns the phi(e)
    coefficients of the power basis.  The polynomial is monic, so each
    step clears its leading entry and touches only the nonzero lower
    coefficients."""
    deg, terms = _reduction_terms(e)
    for i in range(e - 1 - deg, -1, -1):
        c = folded[i + deg]
        if c:
            folded[i + deg] = 0
            for j, d in terms:
                folded[i + j] -= c * d
    return folded[:deg]


class Cyc:
    """An element of Z[zeta_e], immutable and hashable, built from an
    integer exponent vector of any length (entry k is the coefficient of
    zeta_e^k) and kept as its power-basis coefficients."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e, vec):
        folded = [0] * e
        for k, c in enumerate(vec):
            folded[k % e] += c
        self.e = e
        self.coeffs = tuple(reduce_folded(folded, e))

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.e == other.e and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __repr__(self):
        return f"Cyc({self.e}, {self.render()})"

    def render(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.e}" if k == 1 else f"z{self.e}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out
