"""Acceptance gate: one criterion per test, one printed pass/fail line
each.  All checks are exact integer equalities; no tolerances are used
anywhere in this file.
"""

import functools

from isoprod.characters import (
    CharacterTable,
    SubgroupChars,
    _dixon_characters,
    character_table,
    find_constituent_avoiding,
    induced_character,
)
from isoprod.classify import (
    SearchBounds,
    classify_all,
    compute_aut0,
)
from isoprod.covers import GeneratingVector, isotypic_dimensions, validate_vector
from isoprod.errors import ConsistencyError
from isoprod.groups import all_subgroups, build_group, builtin_groups_upto
from isoprod.surfaces import build_surface, example46_construct


def _emit(capsys, num, desc, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num}: {desc}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {num}: {desc}")


def _grid(limit=8):
    """All (m, n, k, l) with m^2 * n * max(k, l) <= limit."""
    out = []
    m = 1
    while m * m <= limit:
        n = 1
        while m * m * n <= limit:
            cap = limit // (m * m * n)
            for k in range(1, cap + 1):
                for l in range(1, cap + 1):
                    out.append((m, n, k, l))
            n += 1
        m += 1
    return out


@functools.lru_cache(maxsize=None)
def _main_sweep():
    bounds = SearchBounds(
        max_group_order=16,
        max_branch_points_r=4,
        max_branch_points_s=4,
        genus_cap=33,
        base_genera=((1, 1),),
        branch_order_cap=8,
    )
    return classify_all(bounds, builtin_groups_upto(16))


def test_criterion_1_example_family_invariants(capsys):
    def check():
        for m, n, k, l in _grid(8):
            S = example46_construct("z2m_z2mn", m, n, k, l)
            c = m * m * n
            assert S.cover_C.genus == 2 * c * k + 1
            assert S.cover_D.genus == 2 * c * l + 1
            inv = S.invariants
            assert inv.q == 2
            assert inv.pg == c * k * l + 1
            assert inv.K2 == 8 * c * k * l

    _emit(capsys, 1, "rank-2 family invariants over the parameter grid", check)


def test_criterion_2_example_family_aut0(capsys):
    def check():
        for fam in ("z2m_z2mn", "z2_z2m_z2mn"):
            for m, n, k, l in _grid(8):
                S = example46_construct(fam, m, n, k, l)
                g1 = S.cover_C.vector.gammas[0]
                g2 = S.cover_D.vector.gammas[0]
                sigma = S.group.mult[g1][g2]
                assert compute_aut0(S) == frozenset([0, sigma])

    _emit(capsys, 2, "Aut_0 = <gamma gamma'> of order 2 on both families", check)


def test_criterion_3_classification_sweep(capsys):
    def check():
        records, summary = _main_sweep()
        assert summary["errors"] == 0
        assert summary["conformance_failures"] == 0
        assert summary["nontrivial_aut0"] > 0
        assert records and all(r["conforms"] is True for r in records)

    _emit(
        capsys,
        3,
        "all nontrivial-Aut_0 surfaces (order <= 16 sweep) conform to the "
        "abelian classification shape",
        check,
    )


def test_criterion_4_nonabelian_control(capsys):
    def check():
        bounds = SearchBounds(
            max_group_order=24,
            max_branch_points_r=4,
            max_branch_points_s=4,
            genus_cap=33,
            base_genera=((1, 1),),
            branch_order_cap=8,
        )
        groups = [
            "dih:3", "dih:4", "dih:5", "dih:6", "dih:7", "dih:8",
            "quat:8", "sym:3", "sym:4", "alt:4",
        ]
        records, summary = classify_all(bounds, groups)
        assert summary["errors"] == 0
        assert summary["nontrivial_aut0"] == 0
        assert records == []

    _emit(capsys, 4, "non-abelian groups yield no nontrivial Aut_0", check)


def test_criterion_5_character_tables(capsys):
    def check():
        for spec in builtin_groups_upto(24):
            G = build_group(spec)
            table = character_table(G)
            table.check()  # exact orthogonality + Burnside identity
            if G.is_abelian():
                td = CharacterTable(G, _dixon_characters(G))
                assert table.characters == td.characters, spec

    _emit(
        capsys,
        5,
        "exact orthogonality for all groups of order <= 24; abelian and "
        "Dixon paths agree",
        check,
    )


def test_criterion_6_broughton_sums(capsys):
    def check():
        from isoprod.classify import _cover_buckets, _representative

        total = 0
        for spec in builtin_groups_upto(16):
            G = build_group(spec)
            table = character_table(G)
            buckets, _ = _cover_buckets(G, 1, 4, 33, 8)
            for key in sorted(buckets):
                r, genus = key[:2]
                ab, gammas = _representative(G, 1, key, 8)
                assert len(gammas) == r
                v = GeneratingVector(G, 1, ab[:1], ab[1:], gammas)
                cover = validate_vector(v)
                assert cover.genus == genus
                dims = isotypic_dimensions(cover, table)
                assert sum(dims) == 2 * cover.genus
                total += 1
        assert total > 0

    _emit(
        capsys,
        6,
        "isotypic dimensions sum to 2g(C) across the sweep's covers "
        "(one representative per branch-class signature)",
        check,
    )


def test_criterion_7_b2_identity(capsys):
    def check():
        surfaces = []
        for fam in ("z2m_z2mn", "z2_z2m_z2mn"):
            for m, n, k, l in _grid(4):
                surfaces.append(example46_construct(fam, m, n, k, l))
        records, _ = _main_sweep()
        for r in records:
            G = build_group(r["group"])
            vC = r["vC"]
            vD = r["vD"]
            surfaces.append(
                build_surface(
                    GeneratingVector(
                        G, vC["b"], tuple(vC["alphas"]), tuple(vC["betas"]),
                        tuple(vC["gammas"]),
                    ),
                    GeneratingVector(
                        G, vD["b"], tuple(vD["alphas"]), tuple(vD["betas"]),
                        tuple(vD["gammas"]),
                    ),
                )
            )
        for S in surfaces:
            inv = S.invariants
            assert 2 + sum(inv.h2_summands) == 4 * inv.chi - 2 + 4 * inv.q
            assert inv.b2 == 2 + sum(inv.h2_summands)

    _emit(capsys, 7, "b2 = 2 + sum of H^2 summands = 4 chi - 2 + 4q", check)


def test_criterion_8_induced_constituent_lemma(capsys):
    def check():
        checked = 0
        for spec in builtin_groups_upto(16):
            G = build_group(spec)
            tG = character_table(G)
            for elems in all_subgroups(G):
                if len(elems) == 1:
                    continue
                sc = SubgroupChars(G, elems, parent_table=tG)
                for i in range(len(sc.table.characters)):
                    ker = sc.kernel_in_parent(i)
                    outside = sorted(sc.elements - ker)
                    if not outside:
                        continue
                    vals = induced_character(tG, sc, i)
                    zero_reps = [
                        cl.representative
                        for cl, v in zip(tG.classes, vals)
                        if v.is_zero()
                    ]
                    for h in outside:
                        try:
                            phi = find_constituent_avoiding(tG, sc, i, [h])
                        except ConsistencyError:
                            raise AssertionError(
                                f"part (i) fails: {spec}, H={sorted(elems)}, "
                                f"chi_{i}, avoid {h}"
                            )
                        assert not ({h} & tG.kernel(tG.index_of(phi)))
                        checked += 1
                    if zero_reps:
                        g = zero_reps[0]
                        h = outside[0]
                        try:
                            phi = find_constituent_avoiding(
                                tG, sc, i, [h], extra=g
                            )
                        except ConsistencyError:
                            raise AssertionError(
                                f"part (ii) fails: {spec}, H={sorted(elems)}, "
                                f"chi_{i}, avoid {h}, extra {g}"
                            )
                        assert g not in tG.kernel(tG.index_of(phi))
                        checked += 1
        assert checked > 1000

    _emit(
        capsys,
        8,
        "induced-character constituent lemma, parts (i) and (ii), "
        "exhaustively at order <= 16",
        check,
    )


def test_criterion_9_base_genus_2_control(capsys):
    def check():
        bounds = SearchBounds(
            max_group_order=8,
            max_branch_points_r=2,
            max_branch_points_s=2,
            genus_cap=33,
            base_genera=((1, 2), (2, 1), (2, 2)),
            branch_order_cap=8,
        )
        records, summary = classify_all(bounds, builtin_groups_upto(8))
        assert summary["errors"] == 0
        assert summary["surfaces"] > 0
        assert summary["nontrivial_aut0"] == 0
        assert records == []

    _emit(
        capsys,
        9,
        "base genus >= 2 on either factor forces trivial Aut_0",
        check,
    )
