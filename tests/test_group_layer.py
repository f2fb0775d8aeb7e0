"""The group layer against the quadratic scans it replaced, past order 24.

Subgroup enumeration, the Sub and Or morphism sets and the Burnside
restriction matrices are compared with the references in `oracles.py` on
seeded relabellings of A5, S3xS3, Z2^4, S4 and D4.
"""

from __future__ import annotations

import random

import pytest

from equichern.eicat import or_mors_raw, sub_mors_raw
from equichern.groups import enumerate_subgroups, subgroup_conjugacy_classes
from equichern.mackey import burnside_mackey
from generators import direct_product, permutation_closure, relabelled_group
from oracles import (
    min_scan_burnside_incl_res,
    per_a_or_mors,
    per_g_sub_mors,
    quadratic_subgroups,
)

S3 = permutation_closure([(1, 0, 2), (1, 2, 0)])
Z2 = permutation_closure([(1, 0)])
TABLES = {
    "a5": (permutation_closure([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]), 59),
    "s3xs3": (direct_product(S3, S3), 60),
    "z2pow4": (direct_product(direct_product(Z2, Z2), direct_product(Z2, Z2)), 67),
    "s4": (permutation_closure([(1, 2, 3, 0), (1, 0, 2, 3)]), 30),
    "d4": (permutation_closure([(1, 2, 3, 0), (2, 1, 0, 3)]), 10),
}


@pytest.fixture(scope="module", params=sorted(TABLES))
def group(request):
    table, n_subgroups = TABLES[request.param]
    rng = random.Random(f"group-layer-{request.param}")
    return relabelled_group(table, rng, request.param), n_subgroups


def test_enumeration_matches_pairwise_closure(group):
    G, n_subgroups = group
    subs = [s.elems for s in enumerate_subgroups(G)]
    assert subs == quadratic_subgroups(G.table)
    assert len(subs) == n_subgroups


def test_morphisms_match_per_element_scan(group):
    G, _ = group
    objects = [c.rep for c in subgroup_conjugacy_classes(G).classes]
    for H in objects:
        for K in objects:
            assert sub_mors_raw(G, H, K) == per_g_sub_mors(G.table, H.elems, K.elems)
            assert or_mors_raw(G, H, K) == per_a_or_mors(G.table, H.elems, K.elems)


def test_burnside_restriction_matches_min_scan(group):
    G, _ = group
    M = burnside_mackey(G)
    ct = subgroup_conjugacy_classes(G)
    checked = 0
    for j, cls in enumerate(ct.classes):
        rset = set(cls.rep.elems)
        for L in enumerate_subgroups(G):
            if set(L.elems) <= rset:
                m = M._incl_res_fn(L, j)
                assert tuple(tuple(row) for row in m.data) == min_scan_burnside_incl_res(G, L, j)
                checked += 1
    assert checked >= len(ct.classes)
