import pytest

from isoprod.characters import character_table
from isoprod.covers import GeneratingVector, enumerate_vectors
from isoprod.errors import ConsistencyError, DomainError, FreenessError
from isoprod.groups import abelian_element, build_group
from isoprod.surfaces import (
    EXAMPLE_FAMILIES,
    build_surface,
    example46_construct,
)

from oracles import broughton_complex, chi_top_euler, conjugate_index, cover_of_row


def _klein_vectors():
    G = build_group("ab:2,2")
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    vC = GeneratingVector(G, 1, (a,), (b,), (a, a))
    vD = GeneratingVector(G, 1, (a,), (b,), (b, b))
    return G, vC, vD


def test_basic_surface():
    G, vC, vD = _klein_vectors()
    S = build_surface(vC, vD)
    inv = S.invariants
    assert (inv.q, inv.pg, inv.chi, inv.K2) == (2, 2, 1, 8)
    assert (inv.euler, inv.b1, inv.b2) == (4, 4, 10)
    assert sum(inv.h2_summands) == 8
    assert inv.euler == chi_top_euler(S.cover_C.genus, S.cover_D.genus, G.order)


def test_freeness_rejected():
    G, vC, _ = _klein_vectors()
    with pytest.raises(FreenessError) as exc:
        build_surface(vC, vC)
    assert exc.value.witness is not None


def test_genus_threshold():
    """Elliptic factors (g=1) are rejected."""
    G = build_group("ab:4")
    a = next(x for x in range(4) if G.element_order[x] == 4)
    v1 = GeneratingVector(G, 1, (a,), (0,), ())  # unramified, g=1
    b2 = G.mult[a][a]
    v2 = GeneratingVector(G, 1, (a,), (0,), (b2, b2))
    with pytest.raises(DomainError):
        build_surface(v1, v2)


def test_mixed_groups_rejected():
    G1, vC, _ = _klein_vectors()
    G2 = build_group("ab:2,2")
    a = abelian_element(G2, (1, 0))
    b = abelian_element(G2, (0, 1))
    vD = GeneratingVector(G2, 1, (a,), (b,), (b, b))
    with pytest.raises(DomainError):
        build_surface(vC, vD)


def test_b2_identity():
    """2 + sum h2_summands = 4*chi - 2 + 4q on a spread of surfaces."""
    G, vC, vD = _klein_vectors()
    surfaces = [build_surface(vC, vD)]
    for fam in EXAMPLE_FAMILIES:
        surfaces.append(example46_construct(fam, 1, 2, 2, 1))
    for S in surfaces:
        inv = S.invariants
        assert 2 + sum(inv.h2_summands) == 4 * inv.chi - 2 + 4 * inv.q
        assert inv.b2 == 2 + sum(inv.h2_summands)


def test_h2_decomposition_exposes_summands():
    G, vC, vD = _klein_vectors()
    S = build_surface(vC, vD)
    inv = S.invariants
    assert len(inv.h2_summands) == 4
    assert inv.h2_summands == (4, 0, 0, 4)


def test_example_family1_formulas():
    for m, n, k, l in [(1, 1, 1, 1), (1, 1, 2, 3), (2, 1, 1, 1), (1, 2, 2, 1)]:
        S = example46_construct("z2m_z2mn", m, n, k, l)
        c = m * m * n
        assert S.cover_C.genus == 2 * c * k + 1
        assert S.cover_D.genus == 2 * c * l + 1
        inv = S.invariants
        assert inv.q == 2
        assert inv.pg == c * k * l + 1
        assert inv.K2 == 8 * c * k * l


def test_example_family2_formulas():
    """For the rank-3 family Riemann-Hurwitz gives delta = 2."""
    for m, n, k, l in [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)]:
        S = example46_construct("z2_z2m_z2mn", m, n, k, l)
        c = 2 * m * m * n
        assert S.cover_C.genus == 2 * c * k + 1
        assert S.cover_D.genus == 2 * c * l + 1
        inv = S.invariants
        assert inv.q == 2
        assert inv.pg == c * k * l + 1
        assert inv.K2 == 8 * c * k * l


def test_example_bad_params():
    with pytest.raises(DomainError):
        example46_construct("z2m_z2mn", 0, 1, 1, 1)
    with pytest.raises(DomainError):
        example46_construct("no_such_family", 1, 1, 1, 1)


def test_surface_json():
    G, vC, vD = _klein_vectors()
    S = build_surface(vC, vD)
    data = S.to_json()
    assert data["group"] == "ab:2,2"
    assert data["q"] == 2 and data["b2"] == 10
    assert data["vC"]["gammas"] == list(vC.gammas)


def test_h2_summands_pair_each_character_with_its_conjugate():
    """h2_summands[i] = m_C(chi_i) m_D(conj chi_i), both multiplicities
    from Broughton's formula in complex arithmetic and conj(chi_i) matched
    by values, on every free pair of b = 1, r <= 2 covers of two groups
    with non-real characters; some pair has a nonzero summand at a
    non-real chi."""
    nonreal_hits = 0
    for spec in ("ab:3,3", "ab:2,4"):
        G = build_group(spec)
        t = character_table(G)
        conj = conjugate_index(t)
        covers = [cover_of_row(G, 1, row) for row in enumerate_vectors(G, 1, 2)]
        mults = {
            c.vector: [broughton_complex(G, t, c, i) for i in range(len(conj))]
            for c in covers
        }
        for cC in covers:
            for cD in covers:
                try:
                    S = build_surface(cC.vector, cD.vector)
                except FreenessError:
                    continue
                mC, mD = mults[cC.vector], mults[cD.vector]
                for i, j in enumerate(conj):
                    assert S.invariants.h2_summands[i] == mC[i] * mD[j]
                    if i != j and mC[i] * mD[j]:
                        nonreal_hits += 1
    assert nonreal_hits > 0
