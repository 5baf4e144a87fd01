"""Unmixed surfaces isogenous to a product: S = (C x D)/G with G acting
diagonally and freely, both curves of genus >= 2.

Surfaces are pure combinatorial objects: a pair of generating vectors
over the same group.  All numerical invariants and the diagonal-invariant
decomposition of H^2 are computed exactly from the pair.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import character_table
from .covers import (
    BranchedCover,
    GeneratingVector,
    isotypic_dimensions,
    stabilizer_union,
    validate_vector,
)
from .errors import ConsistencyError, DomainError, FreenessError
from .groups import GroupTable, abelian_element, build_group


class SurfaceInvariants(NamedTuple):
    q: int
    pg: int
    chi: int
    K2: int
    euler: int
    b1: int
    b2: int
    h2_summands: tuple  # per character index, dims of the Delta_G summands


class UnmixedSurface(NamedTuple):
    group: GroupTable
    cover_C: BranchedCover
    cover_D: BranchedCover
    invariants: SurfaceInvariants

    def to_json(self):
        inv = self.invariants
        return {
            "group": self.group.spec,
            "vC": self.cover_C.vector.to_json(),
            "vD": self.cover_D.vector.to_json(),
            "genus_C": self.cover_C.genus,
            "genus_D": self.cover_D.genus,
            "q": inv.q,
            "pg": inv.pg,
            "chi": inv.chi,
            "K2": inv.K2,
            "e": inv.euler,
            "b1": inv.b1,
            "b2": inv.b2,
            "h2_summands": list(inv.h2_summands),
        }


def build_surface(vC: GeneratingVector, vD: GeneratingVector) -> UnmixedSurface:
    """Validate a pair of generating vectors, verify the diagonal action
    is free and both genera are >= 2, and compute all invariants."""
    cC = validate_vector(vC)
    cD = validate_vector(vD)
    G = cC.vector.group
    if cD.vector.group is not G:
        raise DomainError("both generating vectors must be over the same group")
    if cC.genus < 2 or cD.genus < 2:
        raise DomainError(
            f"both curves must have genus >= 2 (got {cC.genus}, {cD.genus})"
        )
    shared = stabilizer_union(cC.vector) & stabilizer_union(cD.vector)
    if shared != frozenset([0]):
        witness = min(x for x in shared if x != 0)
        raise FreenessError(
            f"diagonal action is not free: {G.labels[witness]} stabilizes "
            "points on both factors",
            witness=witness,
        )
    return UnmixedSurface(G, cC, cD, _compute_invariants(G, cC, cD))


def _compute_invariants(G, cC, cD) -> SurfaceInvariants:
    n = G.order
    gC, gD = cC.genus, cD.genus
    q = cC.vector.base_genus + cD.vector.base_genus
    num = (gC - 1) * (gD - 1)
    if num % n != 0:
        raise ConsistencyError(
            f"|G| = {n} does not divide (g(C)-1)(g(D)-1) = {num}"
        )
    chi = num // n
    table = character_table(G)
    dimsC = isotypic_dimensions(cC, table)
    dimsD = isotypic_dimensions(cD, table)
    # the summand of chi is m_C(chi) m_D(conj chi) = m_C(chi) m_D(chi):
    # H^1 is defined over Q, so chi and conj(chi) have one multiplicity
    summands = [
        a * b // (c.degree * c.degree)
        for a, b, c in zip(dimsC, dimsD, table.characters)
    ]
    b2 = 2 + sum(summands)
    K2 = 8 * chi
    euler = 4 * chi
    pg = chi + q - 1
    b1 = 2 * q
    if b2 != euler - 2 + 2 * b1:
        raise ConsistencyError(
            f"b2 cross-check fails: {b2} != {euler - 2 + 2 * b1}"
        )
    return SurfaceInvariants(q, pg, chi, K2, euler, b1, b2, tuple(summands))


EXAMPLE_FAMILIES = ("z2m_z2mn", "z2_z2m_z2mn")


def example_family(family) -> str:
    """The name in EXAMPLE_FAMILIES that ``family`` denotes: the name
    itself or its number, 1 or 2."""
    if family in (1, "1"):
        return "z2m_z2mn"
    if family in (2, "2"):
        return "z2_z2m_z2mn"
    if family not in EXAMPLE_FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    return family


def example46_construct(family, m, n, k, l) -> UnmixedSurface:
    """The explicit two-parameter-family surfaces with an involution
    acting trivially on cohomology.

    family "z2m_z2mn":    G = Z_2m + Z_2mn, gamma = alpha^m, gamma' = beta^(mn)
    family "z2_z2m_z2mn": G = Z_2 + Z_2m + Z_2mn, gamma = lambda,
                          gamma' = lambda * mu^m
    with 2k (resp. 2l) branch points on the two factors.
    """
    family = example_family(family)
    if min(m, n, k, l) < 1:
        raise DomainError("parameters m, n, k, l must be >= 1")
    if family == "z2m_z2mn":
        G = build_group(f"ab:{2 * m},{2 * m * n}")
        alpha = abelian_element(G, (1, 0))
        beta = abelian_element(G, (0, 1))
        gamma = abelian_element(G, (m, 0))
        gamma2 = abelian_element(G, (0, m * n))
        a1, b1_, a2, b2_ = alpha, beta, alpha, beta
    else:
        G = build_group(f"ab:2,{2 * m},{2 * m * n}")
        lam = abelian_element(G, (1, 0, 0))
        mu = abelian_element(G, (0, 1, 0))
        nu = abelian_element(G, (0, 0, 1))
        gamma = lam
        gamma2 = abelian_element(G, (1, m, 0))  # lambda * mu^m
        a1, b1_, a2, b2_ = mu, nu, mu, nu
    vC = GeneratingVector(G, 1, (a1,), (b1_,), (gamma,) * (2 * k))
    vD = GeneratingVector(G, 1, (a2,), (b2_,), (gamma2,) * (2 * l))
    return build_surface(vC, vD)
