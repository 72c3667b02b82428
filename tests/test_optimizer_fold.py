"""The planner against its fold oracle, over generated headers.

``tests/oracle_optimizer.py``'s :class:`FoldOracleLoader` is the numpy
fold and backtrack the planner ran before its DP moved to C, over choice
tables built one level at a time.  Every plan of
:class:`~repro.core.optimizer.OptimizedLoader` must equal its plan field for
field — ``keep``, ``predicted_error``, ``payload_bytes`` — in both modes,
and a budget one of them refuses the other must refuse too.  The headers
are drawn to reach the DP's edges: planes of 0 B, loss tables of zeros and
of entries near 1e300, targets a hair above the stored bound (shifts past
2^63, which the loop oracle cannot take), and bitrates from 1e-3 to 64.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from oracle_optimizer import FoldOracleLoader

from repro.core.optimizer import OptimizedLoader
from repro.core.predictive_coder import LevelEncoding
from repro.core.stream import StreamHeader
from repro.errors import RetrievalError

PLANE_SIZES = st.one_of(
    st.sampled_from([0, 0, 1, 4, 4, 9, 4096]), st.integers(min_value=0, max_value=10**6)
)
DELTAS = st.one_of(
    st.sampled_from([0.0, 0.0, 5e-324, 0.25, 0.5, 1.5, 1e300, 9.99e299, 1.0000000000000002e300]),
    st.floats(min_value=0.0, max_value=1e300),
)


@st.composite
def headers(draw):
    """A header of 0 to 7 levels, each 0 to 14 planes wide."""
    levels = []
    for level in range(draw(st.integers(min_value=0, max_value=7)), 0, -1):
        nbits = draw(st.integers(min_value=0, max_value=14))
        sizes = draw(st.lists(PLANE_SIZES, min_size=nbits, max_size=nbits))
        delta = draw(st.lists(DELTAS, min_size=nbits + 1, max_size=nbits + 1))
        levels.append(
            LevelEncoding(
                level=level,
                count=8,
                nbits=nbits,
                plane_blocks=[bytes(size) for size in sizes],
                plane_coders=["raw"] * nbits,
                delta_table=np.array(delta),
            )
        )
    return StreamHeader(
        shape=(draw(st.integers(min_value=1, max_value=4096)),),
        dtype="float64",
        error_bound=draw(st.sampled_from([1e-7, 0.125, 1.0, 3.5e5])),
        method=draw(st.sampled_from(["linear", "cubic"])),
        prefix_bits=2,
        anchor_coder="zlib",
        anchor_count=0,
        anchor_size=0,
        levels=levels,
    )


def outcome(plan):
    """A plan, or the type of the refusal."""
    try:
        return plan()
    except RetrievalError as exc:
        return type(exc)


@given(
    header=headers(),
    overhead=st.integers(min_value=0, max_value=300),
    exponents=st.lists(st.floats(min_value=-17.0, max_value=8.0), min_size=1, max_size=6),
    bitrates=st.lists(st.floats(min_value=1e-3, max_value=64.0), min_size=1, max_size=5),
    budgets=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=4),
)
@settings(
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_plans_match_the_fold_oracle(header, overhead, exponents, bitrates, budgets):
    new = OptimizedLoader(header, overhead_bytes=overhead)
    old = FoldOracleLoader(header, overhead_bytes=overhead)
    eb = header.error_bound
    # Targets a hair above eb put shifts past 2^63; the others spread wide.
    targets = [math.nextafter(eb, math.inf), eb * (1 + 2**-52), eb * (1 + 1e-15)]
    targets += [eb * (1 + 10.0**u) for u in exponents]
    for target in targets:
        assert new.plan_for_error_bound(target) == old.plan_for_error_bound(target), target
    for bitrate in bitrates:
        assert outcome(lambda: new.plan_for_bitrate(bitrate)) == outcome(
            lambda: old.plan_for_bitrate(bitrate)
        ), bitrate
    total = new._full_plan().total_bytes
    for fraction in budgets:
        budget = max(1, int(fraction * total))
        assert outcome(lambda: new.plan_for_size(budget)) == outcome(
            lambda: old.plan_for_size(budget)
        ), budget
