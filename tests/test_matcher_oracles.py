"""The matching engine against independent bipartite matchers.

networkx's Hopcroft-Karp and scipy's maximum_bipartite_matching share no
code with projclass.hall; they are test-only oracles, and the runtime stays
pure stdlib.  Both the plain matching size and the surplus at multiplicity n
(n|F| - matching size of the n-fold expansion, by the deficiency form of
Koenig's theorem) are checked.  The n-fold expansion, which the runtime does
not build, is kept here as the route the capacity-n matching must agree
with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from projclass.family import FiniteFamily, expand_multiplicity
from projclass.hall import BipartiteIncidence, max_matching, max_surplus

nx = pytest.importorskip("networkx")
np = pytest.importorskip("numpy")
sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")

families = st.lists(
    st.frozensets(st.integers(1, 9), max_size=5), min_size=0, max_size=8
).map(tuple)


def networkx_size(sets) -> int:
    g = nx.Graph()
    left = [("p", i) for i in range(len(sets))]
    g.add_nodes_from(left)
    g.add_edges_from((("p", i), ("e", e)) for i, s in enumerate(sets) for e in s)
    return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)) // 2


def scipy_size(sets) -> int:
    ground = sorted(frozenset().union(*sets)) if sets else []
    col = {e: j for j, e in enumerate(ground)}
    rows = [i for i, s in enumerate(sets) for _ in s]
    cols = [col[e] for s in sets for e in s]
    m = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(len(sets), len(ground))
    )
    return int((csgraph.maximum_bipartite_matching(m, perm_type="column") >= 0).sum())


@settings(max_examples=200, deadline=None)
@given(sets=families, n=st.integers(1, 10))
def test_matching_and_surplus_agree_with_independent_matchers(sets, n):
    size, matching, _ = max_matching(BipartiteIncidence.from_family(FiniteFamily(sets)))
    assert size == len(matching) == networkx_size(sets) == scipy_size(sets)
    expanded = expand_multiplicity(FiniteFamily(sets), n)
    expected = n * len(sets) - networkx_size(expanded.sets)
    assert expected == n * len(sets) - scipy_size(expanded.sets)
    report = max_surplus(FiniteFamily(sets), n)
    assert report.max_surplus == expected
    # the capacity-n route against the n-fold expansion at capacity 1: the
    # same witness once copies collapse to their positions
    _, _, reached = max_matching(BipartiteIncidence.from_family(expanded))
    assert report.witness_F == tuple(sorted({(p - 1) // n + 1 for p in reached}))
    # the printed matching is a matching of the n-fold family, and maximum
    pairs = report.matching
    assert all(1 <= q <= n * len(sets) and e in expanded.sets[q - 1] for q, e in pairs)
    assert len({q for q, _ in pairs}) == len({e for _, e in pairs}) == len(pairs)
    assert len(pairs) == n * len(sets) - report.max_surplus
