import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod.cyclotomic import Cyc, cyclotomic_poly, euler_phi


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polys():
    for e, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_poly(e) == coeffs
        assert len(coeffs) - 1 == euler_phi(e)


def test_root_of_unity_relations():
    for e in (2, 3, 4, 6, 8, 12):
        z = Cyc.root(e)
        p = Cyc.from_rational(e, 1)
        for _ in range(e):
            p = p * z
        assert p == 1
        # sum of all e-th roots vanishes
        s = Cyc.zero(e)
        for k in range(e):
            s = s + Cyc.root(e, k)
        assert s.is_zero()


def test_conjugation():
    z = Cyc.root(12, 5)
    assert z.conj() == Cyc.root(12, 7)
    assert (z * z.conj()) == 1
    # conj fixes rationals
    q = Cyc.from_rational(12, Fraction(3, 7))
    assert q.conj() == q


def test_rationality_detection():
    e = 6
    # zeta_6 + zeta_6^5 = 1
    v = Cyc.root(e, 1) + Cyc.root(e, 5)
    assert v.is_rational() and v.as_int() == 1
    assert not Cyc.root(e).is_rational()
    with pytest.raises(ValueError):
        Cyc.root(e).as_fraction()


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Cyc.root(4) + Cyc.root(6)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 6, 8, 12]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=8),
    st.lists(st.integers(-4, 4), min_size=1, max_size=8),
)
def test_arithmetic_matches_complex(e, a, b):
    """Exact arithmetic agrees with floating-point complex evaluation."""

    def as_complex(coeffs):
        return sum(
            c * cmath.exp(2j * cmath.pi * k / e) for k, c in enumerate(coeffs)
        )

    x = Cyc(e, a + [0] * max(0, e - len(a)))
    y = Cyc(e, b + [0] * max(0, e - len(b)))
    xa = as_complex(a)
    ya = as_complex(b)
    for got, want in [
        (x + y, xa + ya),
        (x - y, xa - ya),
        (x * y, xa * ya),
        (x.conj(), xa.conjugate()),
    ]:
        approx = sum(
            float(c) * cmath.exp(2j * cmath.pi * k / e)
            for k, c in enumerate(got.coeffs)
        )
        assert abs(approx - want) < 1e-8


def test_render():
    assert Cyc.zero(4).render() == "0"
    assert Cyc.from_rational(4, 2).render() == "2"
    assert Cyc.root(4).render() == "z4"
    assert (-Cyc.root(4)).render() == "-z4"
    assert (Cyc.from_rational(3, 1) + Cyc.root(3)).render() == "1+z3"
