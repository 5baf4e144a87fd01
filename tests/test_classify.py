import pytest

from isoprod.characters import character_table
from isoprod.classify import (
    SearchBounds,
    _aut0_mask,
    _classify_group,
    _cover_buckets,
    _mask_to_set,
    _representative,
    check_conformance,
    classify_all,
    compute_aut0,
)
from isoprod.covers import GeneratingVector, enumerate_vectors
from isoprod.errors import ConsistencyError, DomainError
from isoprod.groups import (
    abelian_element,
    build_group,
    builtin_groups_upto,
    subgroup_registry,
)
from isoprod.surfaces import build_surface, example46_construct

from oracles import abelian_invariants, acts_trivially, aut0_complex, listed_buckets


def _klein_surface():
    G = build_group("ab:2,2")
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    vC = GeneratingVector(G, 1, (a,), (b,), (a, a))
    vD = GeneratingVector(G, 1, (a,), (b,), (b, b))
    return G, a, b, build_surface(vC, vD)


def test_acts_trivially():
    G, a, b, S = _klein_surface()
    sigma = G.mult[a][b]
    assert acts_trivially(S, sigma)
    assert not acts_trivially(S, a)
    assert not acts_trivially(S, b)
    assert acts_trivially(S, 0)


def _s3_surface():
    """A sym:3 surface and one of its (non-central) involutions."""
    G = build_group("sym:3")
    t = next(g for g in range(6) if G.element_order[g] == 2)
    c = next(g for g in range(6) if G.element_order[g] == 3)
    vC = GeneratingVector(G, 1, (c,), (c,), (t, t))
    vD = GeneratingVector(G, 1, (t,), (t,), (c, c, c))
    return t, build_surface(vC, vD)


def test_acts_trivially_requires_central():
    t, S = _s3_surface()
    with pytest.raises(DomainError):
        acts_trivially(S, t)


def test_compute_aut0_klein():
    G, a, b, S = _klein_surface()
    assert compute_aut0(S) == frozenset([0, G.mult[a][b]])


def test_compute_aut0_trivial_for_s3():
    _, S = _s3_surface()
    assert compute_aut0(S) == frozenset([0])


def test_compute_aut0_matches_complex_oracle():
    """compute_aut0 and the bucket masks agree with Aut_0 by the paper's
    definition in complex arithmetic: on every freely paired couple of
    bucket representatives of four groups at b = 1, r <= 3, on both
    example families and on a sym:3 surface."""
    surfaces = []
    for spec in ["ab:2,2", "ab:2,4", "dih:4", "quat:8"]:
        G = build_group(spec)
        buckets, _ = _cover_buckets(G, 1, 3, 33, 8)
        vectors = {}
        for key in buckets:
            ab, gammas = _representative(G, 1, key, 8)
            vectors[key] = GeneratingVector(G, 1, ab[:1], ab[1:], gammas)
        for keyC, vC in sorted(vectors.items()):
            for keyD, vD in sorted(vectors.items()):
                if keyC[3] & keyD[3] != 1:
                    continue
                S = build_surface(vC, vD)
                bucketed = _mask_to_set(_aut0_mask(G, keyC[2] & keyD[2]))
                assert compute_aut0(S) == bucketed, (spec, keyC, keyD)
                surfaces.append(S)
    for family in ("z2m_z2mn", "z2_z2m_z2mn"):
        for m, n, k, l in [(1, 1, 1, 1), (1, 2, 2, 1)]:
            surfaces.append(example46_construct(family, m, n, k, l))
    surfaces.append(_s3_surface()[1])
    nontrivial = 0
    for S in surfaces:
        aut0 = compute_aut0(S)
        assert aut0 == aut0_complex(S), S.to_json()
        nontrivial += len(aut0) > 1
    assert nontrivial > 0


def test_conformance_positive():
    G, a, b, S = _klein_surface()
    ok, reason = check_conformance(S, compute_aut0(S))
    assert ok and reason == ""


def test_conformance_needs_nontrivial():
    G = build_group("sym:3")
    t = next(g for g in range(6) if G.element_order[g] == 2)
    c = next(g for g in range(6) if G.element_order[g] == 3)
    S = build_surface(
        GeneratingVector(G, 1, (c,), (c,), (t, t)),
        GeneratingVector(G, 1, (t,), (t,), (c, c, c)),
    )
    with pytest.raises(DomainError):
        check_conformance(S, compute_aut0(S))


def test_conformance_example_families():
    for fam in (1, 2):
        S = example46_construct(fam, 1, 2, 1, 2)
        ok, reason = check_conformance(S, compute_aut0(S))
        assert ok, (fam, reason)


def test_uniform_involutions_force_the_invariant_factors():
    """``check_conformance`` does not test the invariant factors: in an
    abelian group, two distinct involutions s, t that each complete some
    (alpha, beta) to a generating set, as the uniform branch elements of
    two b = 1 vectors do, force the factors (2m, 2mn) or (2, 2m, 2mn).
    Checked by search on every abelian built-in of order <= 64."""
    seen = 0
    for spec in builtin_groups_upto(64):
        if not spec.startswith("ab:"):
            continue
        G = build_group(spec)
        reg = subgroup_registry(G)
        n, extend, sets = G.order, reg.extend, reg.sets

        def completes(s):
            ks = {extend(extend(0, s), a) for a in range(n)}
            return any(len(sets[extend(k, b)]) == n for k in ks for b in range(n))

        involutions = [s for s in range(n) if G.element_order[s] == 2]
        if sum(map(completes, involutions)) < 2:
            continue
        seen += 1
        f = abelian_invariants(G)
        assert (len(f) == 2 and f[0] % 2 == 0) or (
            len(f) == 3 and f[0] == 2
        ), (spec, f)
    assert seen == 32


# (spec, vC, vD, Aut_0, reason).  Vectors are (b, alphas, betas, gammas);
# an element is an index, or coordinates in an ab: group.  Aut_0 None
# means compute_aut0(S).  check_conformance takes Aut_0 as given, and
# most of its checks need an Aut_0 given by hand: sym:3 has a trivial
# center, and in an abelian group with b = 1 on both sides a nontrivial
# Aut_0 is always {1, sigma_1 tau_1} with distinct uniform involutions.
_X, _Y = (1, 0), (0, 1)
CONFORMANCE_FAILURES = [
    (
        "sym:3", (1, (3,), (3,), (1, 1)), (1, (1,), (1,), (3, 3, 3)), [0, 1],
        "group is not abelian",
    ),
    (
        "ab:3,3", (0, (), (), ((0, 1), (0, 2), (1, 0), (2, 0))),
        (1, ((0, 1),), ((1, 0),), ((1, 1), (2, 2))), None,
        "base genera are not both 1",
    ),
    (
        "ab:3,3,3", (1, ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1), (0, 0, 2))),
        (1, ((1, 0, 0),), ((0, 0, 1),), ((0, 1, 0), (0, 2, 0))),
        [(0, 0, 0), (1, 0, 0)],
        "branch elements are not all equal on each factor",
    ),
    (
        "ab:6", (1, ((1,),), ((0,),), ((3,), (3,))),
        (1, ((1,),), ((0,),), ((2,), (4,))), [(0,), (3,)],
        "branch elements are not all equal on each factor",
    ),
    (
        "ab:2,2", (0, (), (), (_Y,) * 4 + (_X,) * 2), (1, (_Y,), (_X,), ((1, 1),) * 2),
        None, "base genera are not both 1",
    ),
    (
        "ab:2,2", (1, (_X,), (_Y,), (_X, _X)), (2, (_X, _Y), (_Y, _X), ()),
        [(0, 0), (1, 1)], "base genera are not both 1",
    ),
    (
        "ab:2,4", (1, (_X,), (_Y,), ((0, 1), (0, 3))), (1, (_X,), (_Y,), (_X, _X)),
        [(0, 0), (1, 2)], "branch elements are not all equal on each factor",
    ),
    (
        "ab:4,4", (1, (_Y,), (_X,), (_X,) * 4), (1, (_X,), (_Y,), (_Y,) * 4),
        [(0, 0), (2, 2)], "uniform branch elements are not involutions",
    ),
    (
        "ab:2,2", (1, (_X,), (_Y,), (_X, _X)), (1, (_X,), (_Y,), (_Y, _Y)),
        [(0, 0), (1, 0), (0, 1), (1, 1)], "Aut_0 is not generated by sigma_1 tau_1",
    ),
]


@pytest.mark.parametrize("spec, vC, vD, aut0, reason", CONFORMANCE_FAILURES)
def test_conformance_failure_reasons(spec, vC, vD, aut0, reason):
    """Every reason a valid surface can fail the classified shape for."""
    G = build_group(spec)

    def element(x):
        return x if isinstance(x, int) else abelian_element(G, x)

    def vector(b, *parts):
        return GeneratingVector(G, b, *(tuple(map(element, p)) for p in parts))

    S = build_surface(vector(*vC), vector(*vD))
    aut0 = compute_aut0(S) if aut0 is None else frozenset(map(element, aut0))
    assert len(aut0) > 1
    assert check_conformance(S, aut0) == (False, reason)


def test_bounds_validation():
    with pytest.raises(DomainError):
        SearchBounds(max_group_order=0).validate()
    with pytest.raises(DomainError):
        SearchBounds(genus_cap=1).validate()
    with pytest.raises(DomainError):
        SearchBounds(base_genera=((0, 1),)).validate()
    with pytest.raises(DomainError):
        SearchBounds(base_genera=((1, 1), (1, 2), (1, 1))).validate()
    with pytest.raises(DomainError):
        SearchBounds(branch_order_cap=0).validate()
    SearchBounds().validate()


def test_classify_small_sweep():
    bounds = SearchBounds(
        max_group_order=4,
        max_branch_points_r=4,
        max_branch_points_s=4,
        genus_cap=33,
    )
    records, summary = classify_all(bounds, ["ab:2", "ab:3", "ab:4", "ab:2,2"])
    assert summary["errors"] == 0
    assert summary["conformance_failures"] == 0
    assert summary["nontrivial_aut0"] > 0
    assert all(r["group"] == "ab:2,2" for r in records)
    assert all(r["conforms"] for r in records)
    # weights add up to the summary count
    assert sum(r["weight"] for r in records) == summary["nontrivial_aut0"]


def test_cover_buckets_and_covers_share_one_stream():
    """The sweep's counted buckets and enumerate_vectors see the same
    vectors: at b = 1, r <= 3 and genus cap 9 the bucket counts add up
    to the vectors listed without dedup, and both truncated counts equal
    the number of listed vectors whose genus is over the cap."""
    over_total = 0
    for spec in builtin_groups_upto(8):
        G = build_group(spec)
        buckets, truncated = _cover_buckets(G, 1, 3, 9, 8)
        stream = enumerate_vectors(
            G, 1, 3, genus_cap=9, dedup=False, branch_order_cap=8
        )
        listed = sum(1 for _ in stream)
        assert sum(buckets.values()) == listed, spec
        uncapped = enumerate_vectors(
            G, 1, 3, genus_cap=10**6, dedup=False, branch_order_cap=8
        )
        over = sum(1 for c in uncapped if c.genus > 9)
        assert truncated == stream.truncated == over, spec
        over_total += over
    assert over_total > 0


def test_cover_buckets_decide_only_multisets_with_vectors(monkeypatch):
    """``_cover_buckets`` decides a genus only for the branch-class
    multisets that have vectors: on Z_2^4 at b = 1, r <= 4 those are 245
    of the 3,876 multisets of at most 4 of its 15 non-identity classes,
    and ``_multiset_genus`` is called no more often than that."""
    import isoprod.covers as covers

    calls = 0
    decide = covers._multiset_genus

    def counting(*args):
        nonlocal calls
        calls += 1
        return decide(*args)

    monkeypatch.setattr(covers, "_multiset_genus", counting)
    G = build_group("ab:2,2,2,2")
    buckets, _ = _cover_buckets(G, 1, 4, 33, 8)
    assert buckets and 0 < calls <= 245


def test_counted_buckets_match_listing_oracle():
    """Counting (closed form on abelian groups, Moebius inversion on the
    others) gives the listing oracle's bucket keys, counts and truncated
    count for every built-in group of order <= 12 over bases of genus 0,
    1 and 2, under a genus cap that truncates and a branch-order cap
    that drops elements of order 9 to 12."""
    uniform = truncated_total = 0
    for spec in builtin_groups_upto(12):
        G = build_group(spec)
        table = character_table(G)
        for b, max_r in ((0, 4), (1, 2), (2, 1 if G.order <= 8 else 0)):
            counted = _cover_buckets(G, b, max_r, 9, 8)
            counts, _, truncated = listed_buckets(G, table, b, max_r, 9, 8)
            assert counted == (counts, truncated), (spec, b, max_r)
            uniform += sum(1 for key in counts if key[-1] != -1)
            truncated_total += truncated
    assert uniform > 0 and truncated_total > 0


def test_representatives_are_first_listed():
    """Each bucket's representative is the first vector listed in it:
    at b = 1, r <= 3 under genus cap 33 for the built-in groups of order
    <= 8, and under genus cap 9 at b = 0, r <= 4 and b = 1, r <= 3 for
    those of order <= 12 and at b = 2, r <= 1 for those of order <= 8.
    Both uniform and non-uniform buckets are compared."""
    compared = {True: 0, False: 0}  # uniform bucket -> buckets compared
    for spec in builtin_groups_upto(12):
        G = build_group(spec)
        table = character_table(G)
        inputs = [(0, 4, 9), (1, 3, 9)]
        if G.order <= 8:
            inputs += [(1, 3, 33), (2, 1, 9)]
        for b, max_r, genus_cap in inputs:
            buckets, _ = _cover_buckets(G, b, max_r, genus_cap, 8)
            _, first, _ = listed_buckets(G, table, b, max_r, genus_cap, 8)
            assert set(buckets) == set(first), (spec, b, max_r)
            for key in sorted(buckets):
                rep = _representative(G, b, key, 8)
                assert rep == first[key], (spec, b, key)
                compared[key[-1] >= 0] += 1
    assert compared[True] > 0 and compared[False] > 0


def test_group_that_keeps_no_multiset_builds_no_table(monkeypatch):
    """A group none of whose multisets is under the genus cap never looks
    up its character table: at genus cap 2 all 456 vectors of Z_2^2 at
    b = 1, r <= 4 are truncated, and the sweep keeps no record and counts
    nothing."""
    import isoprod.classify as classify

    def refuse(G):
        raise AssertionError(f"character table of {G.spec} looked up")

    monkeypatch.setattr(classify, "character_table", refuse)
    assert _cover_buckets(build_group("ab:2,2"), 1, 4, 2, 8) == ({}, 456)
    records, counts = _classify_group("ab:2,2", SearchBounds(genus_cap=2))
    assert records == []
    assert counts == {
        "surfaces": 0,
        "nontrivial_aut0": 0,
        "conformance_failures": 0,
        "errors": 0,
    }


def test_representative_of_an_empty_bucket_raises():
    """A key that no vector has is a consistency error naming the group
    spec, the base genus and the key."""
    G = build_group("ab:2,2")
    key = (2, 99, 1, 1, -1)
    with pytest.raises(ConsistencyError) as err:
        _representative(G, 1, key, 8)
    message = str(err.value)
    assert "ab:2,2" in message and "b = 1" in message and str(key) in message


def test_classify_weights_against_bruteforce():
    """The bucketed sweep's surface and nontrivial-Aut_0 counts match a
    direct pairing of individually enumerated vectors for one small
    group."""
    from isoprod.covers import enumerate_vectors, stabilizer_union

    G = build_group("ab:2,2")
    covers = [
        c
        for c in enumerate_vectors(
            G, 1, 4, genus_cap=33, dedup=False, branch_order_cap=8
        )
    ]
    sigma = {i: stabilizer_union(c.vector) for i, c in enumerate(covers)}
    total = 0
    nontrivial = 0
    from isoprod.classify import compute_aut0 as aut0_of
    from isoprod.surfaces import build_surface as build

    for i, cC in enumerate(covers):
        for j, cD in enumerate(covers):
            if sigma[i] & sigma[j] != frozenset([0]):
                continue
            total += 1
            if len(aut0_of(build(cC, cD))) > 1:
                nontrivial += 1
    bounds = SearchBounds(
        max_group_order=4,
        max_branch_points_r=4,
        max_branch_points_s=4,
        genus_cap=33,
    )
    _, summary = classify_all(bounds, ["ab:2,2"])
    assert summary["surfaces"] == total == 17280
    assert summary["nontrivial_aut0"] == nontrivial == 3456


def test_classify_deterministic_and_parallel():
    """Two sweeps over the same groups give equal records and summaries."""
    bounds = SearchBounds(
        max_group_order=8,
        max_branch_points_r=2,
        max_branch_points_s=2,
        genus_cap=33,
    )
    groups = ["ab:2,2", "ab:2,4", "dih:4", "quat:8"]
    r1, s1 = classify_all(bounds, groups)
    r2, s2 = classify_all(bounds, groups)
    assert r1 == r2
    assert s1 == s2


def test_classify_full_detail():
    bounds = SearchBounds(
        max_group_order=8,
        max_branch_points_r=3,
        max_branch_points_s=3,
        genus_cap=33,
    )
    records, summary = classify_all(bounds, ["sym:3"], detail="full")
    assert records and all(r["aut0_order"] == 1 for r in records)
    assert sum(r["weight"] for r in records) == summary["surfaces"]


def test_classify_skips_oversized_groups():
    bounds = SearchBounds(max_group_order=4)
    records, summary = classify_all(bounds, ["sym:4"])
    assert records == [] and summary["surfaces"] == 0
