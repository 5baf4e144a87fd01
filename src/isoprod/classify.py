"""Aut_0 detection and exhaustive classification sweeps.

The kernel criterion: a central sigma fails to act trivially on H^2 iff
some irreducible chi has sigma outside Ker(chi) while both H^1(C)^chi and
H^1(D)^chi are nonzero (H^1 is defined over Q, so chi and conj(chi) have
one multiplicity).  Candidates for Aut_0 live in the center of G,
identified with automorphisms of S via sigma -> (sigma, 1) mod the
diagonal.

The sweep driver buckets generating vectors by the data the criterion
actually consumes (branch-class multiset, stabilizer union, uniform
branch element), so each emitted record stands for ``weight`` many
vector pairs with identical Aut_0 and conformance outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import character_table
from .covers import (
    GeneratingVector,
    _branch_plan,
    _class_cyclic_masks,
    _counted_multisets,
    _mask_to_set,
    _multiset_genus,
    _raw_tuples,
    h1_multiplicities,
)
from .errors import ConsistencyError, DomainError, IsoprodError, SizeError
from .groups import _memo, build_group, center, class_index, conjugacy_classes
from .surfaces import UnmixedSurface, build_surface

DEFAULT_BASE_GENERA = ((1, 1),)
ALL_BASE_GENERA = ((1, 1), (1, 2), (2, 1), (2, 2))
# the counts of a sweep's summary, each a number of vector pairs but
# "errors", which counts records
SUMMARY_KEYS = ("surfaces", "nontrivial_aut0", "conformance_failures", "errors")
# the fields of UnmixedSurface.to_json() that a classification record keeps
SURFACE_FIELDS = ("group", "vC", "vD", "genus_C", "genus_D", "q", "pg", "chi", "K2", "b2")


@dataclass
class SearchBounds:
    max_group_order: int = 16
    max_branch_points_r: int = 4
    max_branch_points_s: int = 4
    genus_cap: int = 33
    base_genera: tuple = DEFAULT_BASE_GENERA
    branch_order_cap: int | None = 8

    def validate(self):
        if self.max_group_order < 1:
            raise DomainError("max_group_order must be positive")
        if self.max_branch_points_r < 0 or self.max_branch_points_s < 0:
            raise DomainError("branch point bounds must be >= 0")
        if self.genus_cap < 2:
            raise DomainError("genus_cap must be >= 2")
        if self.branch_order_cap is not None and self.branch_order_cap < 1:
            raise DomainError("branch_order_cap must be >= 1")
        pairs = [tuple(pair) for pair in self.base_genera]
        for i, pair in enumerate(pairs):
            if pair not in ALL_BASE_GENERA:
                raise DomainError(f"unsupported base genus pair {pair}")
            if pair in pairs[:i]:
                raise DomainError(f"base genus pair {pair} is listed twice")
        return self


# -- the kernel criterion ---------------------------------------------


@_memo
def _kernel_masks(G):
    """(mask of Ker(chi) for each chi of character_table(G), mask of the
    center)."""
    table = character_table(G)
    masks = tuple(
        sum(1 << g for g in table.kernel(i)) for i in range(len(table.characters))
    )
    return masks, sum(1 << g for g in center(G))


def _aut0_mask(G, relevant):
    """Mask of the central elements in Ker(chi) for every chi of
    ``character_table(G)`` whose bit is set in ``relevant``."""
    ker_masks, center_mask = _kernel_masks(G)
    out = center_mask
    i = 0
    m = relevant
    while m and out != 1:
        if m & 1:
            out &= ker_masks[i]
        m >>= 1
        i += 1
    return out


def compute_aut0(S: UnmixedSurface) -> frozenset:
    """{sigma in Z_G : sigma acts trivially on H^*(S, QQ)}; always a
    subgroup containing the identity.  The chi that matter are those
    with a nonzero H^2 summand, i.e. H^1(C)^chi and H^1(D)^chi both
    nonzero: H^1 is defined over Q, so conj(chi) has chi's multiplicity."""
    relevant = sum(
        1 << i for i, a in enumerate(S.invariants.h2_summands) if a
    )
    return _mask_to_set(_aut0_mask(S.group, relevant))


# -- conformance with the classification shape ------------------------


def _uniform_gamma(gammas):
    if gammas and gammas.count(gammas[0]) == len(gammas):
        return gammas[0]
    return None


def check_conformance(S: UnmixedSurface, aut0: frozenset):
    """Does a surface S with nontrivial Aut_0 = ``aut0`` have the
    classified shape?

    Shape: abelian group with invariant factors (2m, 2mn) or
    (2, 2m, 2mn); both base genera 1; each vector's branch elements all
    equal to a single order-2 element, distinct between the two factors;
    even branch-point counts; Aut_0 = {1, sigma_1 tau_1}.
    Returns (bool, reason).

    Three parts of the shape hold for every surface ``build_surface``
    accepts that passes the clauses tested, so they are not tested:
    equal branch involutions on the two factors would fix points of
    C x D, and the action is free; in an abelian group the long relation
    at base genus 1 reads s^r = 1 for a uniform branch element s, so an
    involution forces r even; and the invariant factors have the shape.
    For the last, let s != t be the uniform involutions of the two
    vectors.  G = <alpha, beta, s> has rank <= 3, and the two distinct
    involutions make its Sylow 2-subgroup non-cyclic, so at rank 2 the
    first factor is even.  At rank 3, G/<s> is 2-generated, so the odd
    p-parts have rank <= 2 and the 2-part has rank 3; and some 2-part
    factor is Z_2, since otherwise every involution, s among them, lies
    in 2G and G/<s> would need 3 generators.  So the factors are
    (2m, 2mn) or (2, 2m, 2mn).
    """
    if len(aut0) <= 1:
        raise DomainError("conformance check applies to nontrivial Aut_0 only")
    G = S.group
    if not G.is_abelian():
        return False, "group is not abelian"
    vC, vD = S.cover_C.vector, S.cover_D.vector
    if vC.base_genus != 1 or vD.base_genus != 1:
        return False, "base genera are not both 1"
    s1 = _uniform_gamma(vC.gammas)
    t1 = _uniform_gamma(vD.gammas)
    if s1 is None or t1 is None:
        return False, "branch elements are not all equal on each factor"
    if G.element_order[s1] != 2 or G.element_order[t1] != 2:
        return False, "uniform branch elements are not involutions"
    expected = frozenset([0, G.mult[s1][t1]])
    if aut0 != expected:
        return False, "Aut_0 is not generated by sigma_1 tau_1"
    return True, ""


# -- sweep driver ------------------------------------------------------


def _class_data(G, b, M):
    """The bucket data (maskpos, sig) of the branch-class multiset M:
    the H^1 positivity mask over the irreducibles and the stabilizer-union
    mask.

    H^1(C, C) is the complexification of H^1(C, Q), so chi and conj(chi)
    have the same multiplicity, and the H^2 summand of chi is nonzero
    exactly when chi is in both factors' maskpos."""
    mults = h1_multiplicities(character_table(G), b, M)
    maskpos = sum(1 << i for i, m in enumerate(mults) if m)
    masks = _class_cyclic_masks(G)
    sig = 1
    for c in M:
        sig |= masks[c]
    return maskpos, sig


def _cover_buckets(G, b, max_r, genus_cap, branch_order_cap):
    """Count the valid generating vectors in each bucket of the
    classification signature.  Key: (r, genus, dims-positivity mask,
    stabilizer-union mask, uniform gamma or -1).
    Returns (buckets, number of vectors dropped because their genus
    exceeds genus_cap), with buckets[key] the number of vectors in it.

    ``_counted_multisets`` makes the genus and cap decision once per
    branch-class multiset M with vectors, as for ``enumerate_vectors``;
    the bucket data, and so the character table, is read only for the
    kept M.  The vectors whose gammas all equal one u are counted apart,
    and the rest of M's vectors go to the u = -1 bucket.  Nothing is
    listed.
    """
    allowed = _branch_plan(G, branch_order_cap)
    kept, ucounts, truncated = _counted_multisets(G, b, max_r, genus_cap, allowed)
    buckets = {}

    def add(key, count):
        if count:
            buckets[key] = buckets.get(key, 0) + count

    for M, (genus, count) in kept.items():
        r = len(M)
        data = _class_data(G, b, M)
        if M and M.count(M[0]) == r:
            for u in conjugacy_classes(G)[M[0]].members:
                add(_bucket_key(r, genus, data, u), ucounts[u, r])
                count -= ucounts[u, r]
        add(_bucket_key(r, genus, data, None), count)
    return buckets, truncated


def _bucket_key(r, genus, data, u):
    return (r, genus, *data, -1 if u is None else u)


def _representative(G, b, key, branch_order_cap):
    """The first listed vector of bucket ``key`` of ``_cover_buckets``
    with the same b and branch_order_cap, as (ab, gammas); the key
    carries the genus.

    Only ``_raw_tuples`` at the key's r is walked, over the gammas a
    vector of the bucket can hold: u alone for a uniform bucket, else
    the allowed elements whose class mask (``_class_cyclic_masks``) lies
    inside the key's stabilizer-union mask.  That walk lists, in listing
    order, a subsequence of the listing that holds every vector of the
    bucket.
    """
    r, genus, *data, u = key
    cls_of = class_index(G)
    if u >= 0:
        allowed = [u]
    else:
        sig, masks = data[-1], _class_cyclic_masks(G)
        allowed = [
            g
            for g in _branch_plan(G, branch_order_cap)
            if masks[cls_of[g]] & ~sig == 0
        ]
    fits = {}  # sorted branch-class multiset -> has the key's genus, data
    for ab, gammas in _raw_tuples(G, b, r, allowed):
        M = tuple(sorted([cls_of[g] for g in gammas]))
        if M not in fits:
            fits[M] = (
                _multiset_genus(G, b, M) == genus
                and list(_class_data(G, b, M)) == data
            )
        uniform = _uniform_gamma(gammas)
        if fits[M] and _bucket_key(r, genus, data, uniform) == key:
            return ab, gammas
    raise ConsistencyError(
        f"no listed vector of {G.spec} at b = {b} lies in counted bucket {key}"
    )


def _classify_group(spec, bounds: SearchBounds, detail="nontrivial"):
    """All classification records for one group.  Returns
    (records, summary_counts); records are JSON-ready dicts."""
    counts = dict.fromkeys(SUMMARY_KEYS, 0)
    records = []
    try:
        G = build_group(spec, order_cap=bounds.max_group_order)
    except SizeError:
        return records, counts
    buckets, reps = {}, {}
    caps = (bounds.genus_cap, bounds.branch_order_cap)

    def side(b, max_r):
        """Bucket counts of one factor's covers."""
        if (b, max_r) not in buckets:
            buckets[b, max_r] = _cover_buckets(G, b, max_r, *caps)[0]
        return buckets[b, max_r]

    def rep(b, key):
        """A bucket's representative; a key serves many pairs."""
        if (b, key) not in reps:
            ab, gammas = _representative(G, b, key, bounds.branch_order_cap)
            reps[b, key] = GeneratingVector(G, b, ab[:b], ab[b:], gammas)
        return reps[b, key]

    aut0_of = {}  # maskC & maskD -> _aut0_mask
    for bC, bD in bounds.base_genera:
        items_C = sorted(side(bC, bounds.max_branch_points_r).items())
        items_D = sorted(side(bD, bounds.max_branch_points_s).items())
        for keyC, cntC in items_C:
            _r, _g, maskC, sigC, _u = keyC
            for keyD, cntD in items_D:
                _r, _g, maskD, sigD, _u = keyD
                if sigC & sigD != 1:
                    continue
                weight = cntC * cntD
                counts["surfaces"] += weight
                relevant = maskC & maskD
                if relevant not in aut0_of:
                    aut0_of[relevant] = _aut0_mask(G, relevant)
                a_mask = aut0_of[relevant]
                if a_mask == 1 and detail != "full":
                    continue
                vC, vD = rep(bC, keyC), rep(bD, keyD)
                try:
                    rec = _record(vC, vD, a_mask, weight)
                except IsoprodError as exc:
                    counts["errors"] += 1
                    records.append(
                        {
                            "group": G.spec,
                            "error": str(exc),
                            "vC": vC.to_json(),
                            "vD": vD.to_json(),
                        }
                    )
                    continue
                if rec["aut0_order"] > 1:
                    counts["nontrivial_aut0"] += weight
                    if not rec["conforms"]:
                        counts["conformance_failures"] += weight
                records.append(rec)
    records.sort(key=_record_sort_key)
    return records, counts


def _record(vC, vD, a_mask, weight):
    """The JSON-ready record of the surface of (vC, vD), standing for
    ``weight`` vector pairs; its Aut_0 is rechecked against the bucketed
    mask ``a_mask``."""
    S = build_surface(vC, vD)
    aut0 = compute_aut0(S)
    if aut0 != _mask_to_set(a_mask):
        raise IsoprodError(
            "bucketed Aut_0 disagrees with the per-surface computation"
        )
    conforms, reason = check_conformance(S, aut0) if len(aut0) > 1 else (None, "")
    surface = S.to_json()
    return {
        **{k: surface[k] for k in SURFACE_FIELDS},
        "aut0": sorted(aut0),
        "aut0_labels": [S.group.labels[g] for g in sorted(aut0)],
        "aut0_order": len(aut0),
        "conforms": conforms,
        "reason": reason,
        "weight": weight,
    }


def _record_sort_key(r):
    if "error" in r:
        return (r["group"], 1, str(sorted(r.items())))
    return (
        r["group"],
        0,
        r["vC"]["b"],
        r["vD"]["b"],
        len(r["vC"]["gammas"]),
        len(r["vD"]["gammas"]),
        r["vC"]["gammas"],
        r["vD"]["gammas"],
        r["vC"]["alphas"],
        r["vD"]["alphas"],
    )


def classify_all(bounds: SearchBounds, groups, detail: str = "nontrivial"):
    """Classify every admissible surface over the given group specs.

    Returns (records, summary).  With ``detail="nontrivial"`` (default)
    per-pair records are emitted only for nontrivial Aut_0; every pair is
    still counted in the summary.  Deterministic for a fixed input.
    """
    bounds.validate()
    summary = dict.fromkeys(SUMMARY_KEYS, 0)
    all_records = []
    for spec in groups:
        records, counts = _classify_group(spec, bounds, detail)
        all_records.extend(records)
        for k in SUMMARY_KEYS:
            summary[k] += counts[k]
    return all_records, summary
