"""Tests for the JSON report: byte for byte the reference writer's output."""

import random

from conftest import encoders, seeded_gates, to_json_reference
from hypothesis import example, given
from hypothesis import strategies as st

from pearlmem import PearlNecklace, analyze, to_json

# No check, a realization check, and a brute-force check over a bound below
# the memory, whose count is None.
VERIFICATIONS = [
    None,
    {"frames": 12, "interior_equal": True, "margin": 5},
    {"bound": 2, "brute_force_frames": None, "match": False},
]


def _seeded(width: int) -> PearlNecklace:
    """An encoder of the benchmark's shape, N = 1000 strings with |l| <= 3: so
    1000-item arrays and, at width 4, weights in the hundreds and a critical
    path of 298 vertices."""
    return PearlNecklace.from_tuples(seeded_gates(random.Random(1), 1000, width, 3), width)


@given(
    encoders(max_strings=8, max_width=5, degree_range=(-4, 4)),
    st.sampled_from(VERIFICATIONS),
)
@example(PearlNecklace((), 1), None)
@example(PearlNecklace((), 3), VERIFICATIONS[2])
@example(_seeded(4), None)
@example(_seeded(64), VERIFICATIONS[1])
def test_to_json_matches_the_reference(enc, verification):
    report = analyze(enc)
    assert to_json(report, verification) == to_json_reference(report, verification)
