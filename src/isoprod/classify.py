"""Aut_0 detection and exhaustive classification sweeps.

The kernel criterion: a central sigma fails to act trivially on H^2 iff
some irreducible chi has sigma outside Ker(chi) while both H^1(C)^chi and
H^1(D)^chi are nonzero (H^1 is defined over Q, so chi and conj(chi) have
one multiplicity).  Candidates for Aut_0 live in the center of G,
identified with automorphisms of S via sigma -> (sigma, 1) mod the
diagonal.

The sweep decides Aut_0 by the criterion's corollary for base genera
>= 1, the central-involution rule proved in the README: {1, st} when
b_C = b_D = 1 and the gammas of C all equal one central involution s and
those of D one central involution t, else {1}.  A central element is a
class of its own, so the branch-class multiset M says whether every
gamma is one central u.  The sweep buckets vectors by (r, genus,
stabilizer union, u or -1), all read from M, reads no character table,
and rechecks each record it emits by the criterion.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import character_table
from .covers import (
    GeneratingVector,
    _branch_plan,
    _class_cyclic_masks,
    _counted_multisets,
    _mask_to_set,
    _multiset_genus,
    _raw_tuples,
    _stabilizer_mask,
)
from .errors import ConsistencyError, DomainError, IsoprodError, SizeError
from .groups import (
    _memo,
    build_group,
    builtin_groups_upto,
    center,
    class_index,
    conjugacy_classes,
)
from .surfaces import UnmixedSurface, build_surface

DEFAULT_BASE_GENERA = ((1, 1),)
ALL_BASE_GENERA = ((1, 1), (1, 2), (2, 1), (2, 2))
# the counts of a sweep's summary, each a number of vector pairs but
# "errors", which counts records
SUMMARY_KEYS = ("surfaces", "nontrivial_aut0", "conformance_failures", "errors")
# the fields of UnmixedSurface.to_json() that a classification record keeps
SURFACE_FIELDS = ("group", "vC", "vD", "genus_C", "genus_D", "q", "pg", "chi", "K2", "b2")


class SearchBounds(NamedTuple):
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
    nonzero: H^1 is defined over Q, so conj(chi) has chi's multiplicity.
    The sweep decides by its corollary, the central-involution rule, and
    rechecks every record here."""
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

    The rest of the shape (distinct involutions, even r, the invariant
    factors) holds for every surface ``build_surface`` accepts that
    passes these clauses.  The README proves this, and, inside the
    model, the whole shape at the base genera the central-involution
    rule covers, so on sweep records this check rechecks the rule.
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


def _cover_buckets(G, b, max_r, genus_cap, branch_order_cap):
    """Count the valid generating vectors in each bucket of the
    classification signature, keyed by ``_bucket_key``: all the
    central-involution rule and the freeness test read; at b >= 1 it
    fixes the H^1 positivity masks (Lemma A in the README).
    Returns (buckets, number of vectors dropped because their genus
    exceeds genus_cap), with buckets[key] the number of vectors in it.

    ``_counted_multisets`` makes the genus and cap decision once per
    branch-class multiset M with vectors, as for ``enumerate_vectors``;
    the key is read only for the kept M, and each kept M's count is
    added under it.  Nothing is listed.
    """
    allowed = _branch_plan(G, branch_order_cap)
    kept, truncated = _counted_multisets(G, b, max_r, genus_cap, allowed)
    buckets = {}
    for M, (genus, count) in kept.items():
        key = _bucket_key(G, M, genus)
        buckets[key] = buckets.get(key, 0) + count
    return buckets, truncated


def _bucket_key(G, M, genus):
    """(r, genus, stabilizer-union mask, u) for the vectors of genus
    ``genus`` whose sorted branch-class multiset is M: u is the element
    every gamma equals when M repeats one class of size 1, else -1."""
    u = -1
    if M and M.count(M[0]) == len(M):
        members = conjugacy_classes(G)[M[0]].members
        if len(members) == 1:
            u = members[0]
    return (len(M), genus, _stabilizer_mask(G, M), u)


def _representative(G, b, key, branch_order_cap):
    """The first listed vector of bucket ``key`` of ``_cover_buckets``
    with the same b and branch_order_cap, as (ab, gammas); the key
    carries the genus.

    Only ``_raw_tuples`` at the key's r is walked, over the gammas a
    vector of the bucket can hold: the allowed elements whose class mask
    (``_class_cyclic_masks``) lies inside the key's stabilizer-union
    mask, which for a bucket uniform in a central involution u is u
    alone.  That walk lists, in listing order, a subsequence of the
    listing that holds every vector of the bucket, and a vector is in
    the bucket iff its branch-class multiset keys to it.
    """
    r, _, sig, _ = key
    cls_of, masks = class_index(G), _class_cyclic_masks(G)
    allowed = [
        g for g in _branch_plan(G, branch_order_cap) if masks[cls_of[g]] & ~sig == 0
    ]
    fits = {}  # sorted branch-class multiset -> keys to ``key``
    for ab, gammas in _raw_tuples(G, b, r, allowed):
        M = tuple(sorted([cls_of[g] for g in gammas]))
        if M not in fits:
            fits[M] = _bucket_key(G, M, _multiset_genus(G, b, M)) == key
        if fits[M]:
            return ab, gammas
    raise ConsistencyError(
        f"no listed vector of {G.spec} at b = {b} lies in counted bucket {key}"
    )


def _classify_group(G, bounds: SearchBounds, full=False):
    """All classification records for the built group G.  Returns
    (records, summary_counts); records are JSON-ready dicts.  A free
    bucket pair's Aut_0 is {1, uC uD} when bC = bD = 1 and both buckets
    are uniform in a central involution, else {1} (the central-involution
    rule); ``_record`` rechecks it by the kernel criterion."""
    counts = dict.fromkeys(SUMMARY_KEYS, 0)
    records, buckets, reps = [], {}, {}
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

    involutions = {z for z in center(G) if G.element_order[z] == 2}
    for bC, bD in bounds.base_genera:
        items_C = sorted(side(bC, bounds.max_branch_points_r).items())
        items_D = sorted(side(bD, bounds.max_branch_points_s).items())
        for keyC, cntC in items_C:
            _r, _g, sigC, uC = keyC
            for keyD, cntD in items_D:
                _r, _g, sigD, uD = keyD
                if sigC & sigD != 1:
                    continue
                weight = cntC * cntD
                counts["surfaces"] += weight
                if bC == bD == 1 and uC in involutions and uD in involutions:
                    a_mask = 1 | 1 << G.mult[uC][uD]
                else:
                    a_mask = 1
                if a_mask == 1 and not full:
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
    ``weight`` vector pairs; its Aut_0 is rechecked against ``a_mask``,
    the bucket pair's Aut_0 by the central-involution rule."""
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


def classify_all(bounds: SearchBounds, groups=None, full: bool = False):
    """Classify every admissible surface over the group specs ``groups``,
    by default the built-in groups of order <= ``bounds.max_group_order``,
    made only once the bounds pass ``validate``.  Each spec is built once;
    a group above the order cap is skipped, and one listed twice, also
    under two spellings (its Cayley table ``G.mult``, or above the cap
    its text), is a DomainError.  Returns (records, summary); without
    ``full`` records are kept only for nontrivial Aut_0, while every
    pair is counted in the summary.  Deterministic for a fixed input.
    """
    bounds.validate()
    if groups is None:
        groups = builtin_groups_upto(bounds.max_group_order)
    summary = dict.fromkeys(SUMMARY_KEYS, 0)
    all_records, seen = [], {}
    for spec in groups:
        try:
            G = build_group(spec, order_cap=bounds.max_group_order)
        except SizeError:
            G = None
        key = spec if G is None else G.mult
        if key in seen:
            name, first = seen[key]
            raise DomainError(f"{name!r} is listed twice: as {first!r} and {spec!r}")
        seen[key] = (spec if G is None else G.spec, spec)
        if G is None:
            continue
        records, counts = _classify_group(G, bounds, full)
        all_records.extend(records)
        for k in SUMMARY_KEYS:
            summary[k] += counts[k]
    return all_records, summary
