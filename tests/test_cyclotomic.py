import cmath
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod.characters import _fold, _sparse, character_table
from isoprod.cyclotomic import Cyc, cyclotomic_poly, reduce_folded
from isoprod.groups import build_group

from oracles import decompose, reduce_dense


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


def euler_phi(e):
    return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)


def root(k=1):
    """zeta^k as an exponent vector."""
    return [0] * k + [1]


def test_cyclotomic_polys():
    for e, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_poly(e) == coeffs
        assert len(coeffs) - 1 == euler_phi(e)


def test_root_of_unity_relations():
    for e in (2, 3, 4, 6, 8, 12):
        # zeta^e = 1, and exponents fold mod e
        assert Cyc(e, root(e)) == Cyc(e, [1])
        assert Cyc(e, root(e + 1)) == Cyc(e, root(1))
        # sum of all e-th roots vanishes
        assert Cyc(e, [1] * e).is_zero()
        assert len(Cyc(e, [1] * e).coeffs) == euler_phi(e)


def test_conjugation():
    """``_fold`` multiplies by the conjugate: zeta^5 conj(zeta^5) = 1,
    conj(zeta^5) = zeta^7, and conjugation fixes integers."""
    e = 12
    z5, one = _sparse(root(5)), _sparse([1])
    assert _fold(e, [(1, z5, z5)]) == list(Cyc(e, [1]).coeffs)
    assert _fold(e, [(1, one, z5)]) == list(Cyc(e, root(7)).coeffs)
    assert _fold(e, [(3, one, one)]) == list(Cyc(e, [3]).coeffs)


def test_rationality_detection():
    e = 6
    # zeta_6 + zeta_6^5 = 1: a rational value has only a constant term
    assert Cyc(e, [0, 1, 0, 0, 0, 1]).coeffs == (1, 0)
    assert Cyc(e, root()).coeffs == (0, 1)
    assert Cyc(e, [0, 1, 0, 0, 0, 1]) == Cyc(e, [1])


def test_mixed_moduli_rejected():
    t = character_table(build_group("ab:4"))
    with pytest.raises(ValueError, match="zeta_4"):
        decompose(t, [Cyc(6, [1])] * 4)
    assert Cyc(4, [1]) != Cyc(6, [1])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 6, 8, 12]),
    st.integers(-5, 5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=30),
    st.lists(st.integers(-4, 4), min_size=1, max_size=30),
)
def test_arithmetic_matches_complex(e, w, a, b):
    """The integer kernel agrees with floating-point complex evaluation:
    reduce_folded on a folded vector keeps its value, and _fold computes
    w * x * conj(y)."""

    def as_complex(coeffs):
        return sum(
            c * cmath.exp(2j * cmath.pi * k / e) for k, c in enumerate(coeffs)
        )

    folded = [0] * e
    for k, c in enumerate(a):
        folded[k % e] += c
    reduced = reduce_folded(folded, e)
    assert len(reduced) == euler_phi(e)
    assert all(isinstance(c, int) for c in reduced)
    xa, ya = as_complex(a), as_complex(b)
    assert abs(as_complex(reduced) - xa) < 1e-8
    assert Cyc(e, a).coeffs == tuple(reduced)
    got = _fold(e, [(w, _sparse(a), _sparse(b))])
    assert abs(as_complex(got) - w * xa * ya.conjugate()) < 1e-8


def test_render():
    assert Cyc(4, []).render() == "0"
    assert Cyc(4, [2]).render() == "2"
    assert Cyc(4, root()).render() == "z4"
    assert Cyc(4, [0, -1]).render() == "-z4"
    assert Cyc(4, [0, 0, 0, 2]).render() == "-2*z4"
    assert Cyc(3, [1, 1]).render() == "1+z3"
    # zeta_3^2 = -1 - zeta_3
    assert Cyc(3, root(2)).render() == "-1-z3"
    assert Cyc(12, [0, 0, 3, -1]).render() == "3*z12^2-z12^3"


def test_reduce_folded_matches_dense_oracle():
    """reduce_folded, which steps over the nonzero lower coefficients of
    Phi_e only, equals long division by every coefficient of Phi_e for
    every e <= 128: on each unit vector x^k, k < e, and on a seeded
    batch of integer vectors."""
    rng = random.Random(128)
    for e in range(1, 129):
        vectors = [[int(j == k) for j in range(e)] for k in range(e)]
        vectors += [[rng.randint(-9, 9) for _ in range(e)] for _ in range(6)]
        for v in vectors:
            assert reduce_folded(list(v), e) == reduce_dense(v, e), (e, v)
