from __future__ import annotations

import pytest

from equichern.groups import (
    FiniteGroup,
    GroupError,
    GroupParseError,
    as_group,
    centralizer,
    double_cosets,
    element_conjugacy_classes,
    enumerate_subgroups,
    find_isomorphism,
    generated_subgroup,
    normalizer,
    parse_group,
    parse_subgroup_literal,
    subgroup,
    subgroup_conjugacy_classes,
    subgroup_count_oracle,
    weyl_group,
)

import oracles
from generators import direct_product


def test_parse_trivial_group():
    G = parse_group("group t\norder 1\n0\n")
    assert G.order == 1
    assert G.inverses == (0,)


def test_parse_z2():
    G = parse_group("group z2\norder 2\n0 1\n1 0\n")
    assert G.order == 2
    assert G.mul(1, 1) == 0


def test_parse_comments_and_errors():
    text = "# a comment\ngroup z2\norder 2\n0 1\n1 0\n"
    assert parse_group(text).order == 2
    with pytest.raises(GroupParseError):
        parse_group("order 2\n0 1\n1 0\n")
    with pytest.raises(GroupParseError):
        parse_group("group g\norder 2\n0 1\n")
    err = None
    try:
        parse_group("group g\norder 2\n0 x\n1 0\n")
    except GroupParseError as exc:
        err = exc
    assert err is not None and err.line == 3


def test_nonassociative_table_rejected():
    # latin square with identity that is not a group (no associativity):
    # this is the smallest standard example, a loop of order 5
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    text = "group loop\norder 5\n" + "\n".join(" ".join(map(str, r)) for r in rows)
    with pytest.raises(GroupError, match="associativity"):
        parse_group(text)


def test_missing_identity_rejected():
    with pytest.raises(GroupError, match="identity"):
        parse_group("group g\norder 2\n1 0\n0 1\n")


def test_s3_element_classes(s3):
    classes = element_conjugacy_classes(s3)
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 2, 3]
    assert [tuple(c.members) for c in classes] == oracles.brute_element_classes(s3.table)


def test_q8_element_classes(q8):
    classes = element_conjugacy_classes(q8)
    assert len(classes) == 5
    assert [tuple(c.members) for c in classes] == oracles.brute_element_classes(q8.table)


def test_zn_element_classes(groups):
    for name in ("z2", "z5", "z8"):
        G = groups[name]
        classes = element_conjugacy_classes(G)
        assert all(len(c.members) == 1 for c in classes)
        assert len(classes) == G.order


def test_subgroup_enumeration_against_oracle(groups):
    expected_counts = {"s3": 6, "q8": 6, "d4": 10, "a4": 10, "s4": 30, "z4": 3, "z6": 4}
    for name, G in groups.items():
        subs = enumerate_subgroups(G)
        oracle = oracles.brute_subgroups(G.table)
        assert [s.elems for s in subs] == oracle, name
        assert len(subs) == subgroup_count_oracle(G)
        if name in expected_counts:
            assert len(subs) == expected_counts[name]


def test_subgroup_count_oracle_needs_three_generators(z2):
    # Z2^3 is the first test group with a subgroup that needs three
    # generators (itself): 1 + 7 + 7 + 1 = 16 subgroups
    G = FiniteGroup(direct_product(direct_product(z2.table, z2.table), z2.table), name="z2^3")
    assert subgroup_count_oracle(G) == len(enumerate_subgroups(G)) == 16


def test_enumerate_subgroups_has_no_order_cap():
    # the group-order guard lives only in the CLI (`--cap`)
    G = FiniteGroup([[(a + b) % 67 for b in range(67)] for a in range(67)], name="z67")
    assert [s.elems for s in enumerate_subgroups(G)] == [(0,), tuple(range(67))]
    assert len(subgroup_conjugacy_classes(G)) == 2


def test_subgroup_validation(s3):
    with pytest.raises(GroupError):
        subgroup(s3, (0, 3))  # not closed: 3*3 = 4
    sub = subgroup(s3, (0, 3, 4))
    assert sub.order == 3


def test_s3_class_table(s3):
    ct = subgroup_conjugacy_classes(s3)
    assert len(ct.classes) == 4
    orders = [len(c.rep) for c in ct.classes]
    assert orders == [1, 2, 3, 6]
    weyl_orders = [c.weyl.order for c in ct.classes]
    assert weyl_orders == [1, 1, 2, 1]
    # conjugator witnesses
    for cls in ct.classes:
        for m in cls.members:
            g = cls.conjugators[m.elems]
            assert tuple(sorted(s3.conj(g, h) for h in cls.rep.elems)) == m.elems
        assert cls.conjugators[cls.rep.elems] == 0


def test_z4_class_table(z4):
    ct = subgroup_conjugacy_classes(z4)
    assert len(ct.classes) == 3
    assert all(c.weyl.order == 1 for c in ct.classes)


def test_trivial_group_class_table():
    G = parse_group("group t\norder 1\n0\n")
    ct = subgroup_conjugacy_classes(G)
    assert len(ct.classes) == 1


def test_d4_class_table(d4):
    ct = subgroup_conjugacy_classes(d4)
    assert len(ct.classes) == 8
    weyl_orders = [c.weyl.order for c in ct.classes]
    # classes sorted by (order, elements): 1, <diag>, <axis>, Z, V4diag, V4axis, C4, D4
    assert weyl_orders == [1, 1, 1, 1, 2, 2, 2, 1]


def test_centralizer_normalizer(s3, z4):
    c3 = generated_subgroup(s3, [3])
    assert centralizer(s3, c3).elems == (0, 3, 4)  # C_{S3}(C3) = C3
    c2 = generated_subgroup(s3, [1])
    assert normalizer(s3, c2).elems == c2.elems  # N_{S3}(C2) = C2
    # abelian: C_G(G) = G
    assert centralizer(z4, subgroup(z4, range(4))).order == 4
    for G, H in ((s3, c3), (s3, c2)):
        assert centralizer(G, H).elems == oracles.brute_centralizer(G.table, H.elems)
        assert normalizer(G, H).elems == oracles.brute_normalizer(G.table, H.elems)


def test_weyl_groups(s3, z4):
    c3 = generated_subgroup(s3, [3])
    w = weyl_group(s3, c3)
    assert w.order == 2  # W_{S3}(C3) = Z/2
    assert w.group.table == ((0, 1), (1, 0))
    full = subgroup(s3, range(6))
    assert weyl_group(s3, full).order == 1
    z2_in_z4 = generated_subgroup(z4, [2])
    assert weyl_group(z4, z2_in_z4).order == 1
    # |W| * |H*C| == |N|
    for G in (s3, z4):
        for H in enumerate_subgroups(G):
            w = weyl_group(G, H)
            assert w.order * len(w.hc) == len(w.normalizer)
            # quotient map is a homomorphism onto W
            for a in w.normalizer.elems:
                for b in w.normalizer.elems:
                    assert w.to_weyl[G.mul(a, b)] == w.group.mul(w.to_weyl[a], w.to_weyl[b])


def test_double_cosets(s3):
    c3 = generated_subgroup(s3, [3])
    c2 = generated_subgroup(s3, [1])
    full = subgroup(s3, range(6))
    dc = double_cosets(s3, full, full)
    assert len(dc.cosets) == 1
    dc = double_cosets(s3, c3, c3)
    assert len(dc.cosets) == 2
    assert sorted(len(c) for c in dc.cosets) == [3, 3]
    dc = double_cosets(s3, c2, c2)
    assert sorted(len(c) for c in dc.cosets) == [2, 4]
    assert [c for c in dc.cosets] == [
        tuple(c) for c in oracles.brute_double_cosets(s3.table, c2.elems, c2.elems)
    ]
    assert all(c[0] == r for c, r in zip(dc.cosets, dc.representatives))
    assert sum(len(c) for c in dc.cosets) == s3.order


def test_double_coset_sizes_partition(groups):
    for name in ("s3", "d4", "q8"):
        G = groups[name]
        subs = enumerate_subgroups(G)
        for K in subs:
            for H in subs:
                dc = double_cosets(G, K, H)
                assert sum(len(c) for c in dc.cosets) == G.order


def test_as_group(s3):
    c3 = generated_subgroup(s3, [3])
    view = as_group(c3)
    assert view.group.order == 3
    assert view.to_parent[0] == 0
    for i in range(3):
        for j in range(3):
            assert view.to_parent[view.group.mul(i, j)] == s3.mul(
                view.to_parent[i], view.to_parent[j]
            )


def test_find_isomorphism(groups, s4):
    # S3 is isomorphic to the S3-subgroup of S4
    subs = enumerate_subgroups(s4)
    s3_sub = next(s for s in subs if len(s) == 6)
    view = as_group(s3_sub)
    phi = find_isomorphism(groups["s3"], view.group)
    assert phi is not None
    A, B = groups["s3"], view.group
    assert sorted(phi) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert phi[A.mul(a, b)] == B.mul(phi[a], phi[b])
    # D4 vs Q8 are not isomorphic
    assert find_isomorphism(groups["d4"], groups["q8"]) is None
    assert find_isomorphism(groups["z4"], groups["z2"]) is None


def test_subgroup_literal(s3):
    sub = parse_subgroup_literal("{0,3,4}", s3)
    assert sub.elems == (0, 3, 4)
    with pytest.raises(GroupParseError):
        parse_subgroup_literal("{0,9}", s3)
    with pytest.raises(GroupParseError):
        parse_subgroup_literal("0,1", s3)
