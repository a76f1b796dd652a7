"""Hypothesis strategies for spaces, shared by the test files."""

import itertools

from hypothesis import strategies as st

from chernweil.simplicial import _from_subsets


@st.composite
def subcomplexes(draw, n):
    """A nonempty down-closed subcomplex of Delta^n, spanned by random
    vertex sets and all their faces."""
    vertex_sets = st.frozensets(st.integers(0, n), min_size=1)
    tops = draw(st.lists(vertex_sets, min_size=1, max_size=4))
    closed = {tuple(sorted(f)) for t in tops for m in range(1, len(t) + 1) for f in itertools.combinations(t, m)}
    return _from_subsets(n, closed)
