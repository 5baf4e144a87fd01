"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values live in the power basis 1, z, ..., z^(phi(e)-1) after reduction
modulo the e-th cyclotomic polynomial, with Fraction coefficients, so all
equality / rationality tests are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def euler_phi(e: int) -> int:
    return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)


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


def reduce_folded(folded, e):
    """Reduce Sum_k folded[k] zeta_e^k (k = 0..e-1) modulo the e-th
    cyclotomic polynomial, in place; returns the phi(e) coefficients of
    the power basis.  Works for int and Fraction coefficients alike."""
    phi = cyclotomic_poly(e)
    deg = len(phi) - 1
    for i in range(e - 1 - deg, -1, -1):
        c = folded[i + deg]
        if c:
            for j, d in enumerate(phi):
                folded[i + j] -= c * d
    return folded[:deg]


def _reduce(coeffs, e):
    """Reduce an (arbitrary-length) coefficient list mod x^e-1, then mod
    the e-th cyclotomic polynomial; returns a tuple of length phi(e)."""
    folded = [Fraction(0)] * e
    for k, c in enumerate(coeffs):
        folded[k % e] += c
    return tuple(reduce_folded(folded, e))


class Cyc:
    """An element of Q(zeta_e), immutable and hashable."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e, coeffs, reduced=False):
        self.e = e
        if reduced:
            self.coeffs = tuple(Fraction(c) for c in coeffs)
        else:
            self.coeffs = _reduce([Fraction(c) for c in coeffs], e)

    @classmethod
    def zero(cls, e):
        return cls(e, (), reduced=False)

    @classmethod
    def from_rational(cls, e, q):
        return cls(e, (Fraction(q),))

    @classmethod
    def root(cls, e, k=1):
        """zeta_e^k."""
        v = [0] * (k % e + 1)
        v[k % e] = 1
        return cls(e, v)

    def _unreduced(self):
        # embed the power basis back into exponents 0..e-1
        v = [Fraction(0)] * self.e
        for k, c in enumerate(self.coeffs):
            v[k] += c
        return v

    def __add__(self, other):
        other = self._coerce(other)
        return Cyc(
            self.e,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            reduced=True,
        )

    def __sub__(self, other):
        other = self._coerce(other)
        return Cyc(
            self.e,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            reduced=True,
        )

    def __neg__(self):
        return Cyc(self.e, tuple(-a for a in self.coeffs), reduced=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(
                self.e, tuple(a * other for a in self.coeffs), reduced=True
            )
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (len(a) + len(b) - 1 or 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyc(self.e, prod)

    __rmul__ = __mul__
    __radd__ = __add__

    def __truediv__(self, k):
        k = Fraction(k)
        return Cyc(self.e, tuple(a / k for a in self.coeffs), reduced=True)

    def conj(self):
        """Complex conjugation: zeta -> zeta^-1."""
        v = self._unreduced()
        out = [Fraction(0)] * self.e
        for k, c in enumerate(v):
            out[(-k) % self.e] += c
        return Cyc(self.e, out)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise ValueError("mixed cyclotomic moduli")
            return other
        return Cyc.from_rational(self.e, other)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def as_int(self):
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return int(q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
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
