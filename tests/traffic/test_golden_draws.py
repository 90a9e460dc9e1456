"""Golden draws: the exact connection sets two fixed seeds produce.

Every campaign run key, stored row and benchmark digest rests on the
generators consuming one ``numpy.random.Generator`` stream in one order
with one set of arguments.  These tables pin what that stream yields,
so a change to the draw (an extra call, a reordered call, a different
argument, or different arithmetic on a drawn value) fails here, by name,
instead of only in an end-to-end digest.

Each connection reads ``(source, destinations, period, size, phase,
deadline)``; connection ids come from a process-wide counter and are
left out.
"""

import numpy as np
import pytest

from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import random_workload

SEEDS = (7, 2002)

#: ``random_connection_set(rng, 8, 12, 0.7, period_range=(10, 200))``;
#: the ``"uniform"`` profile of ``random_workload`` is the same draw.
UNIFORM = {
    7: [
        (5, (1,), 23, 1, 10, None),
        (4, (6,), 138, 1, 109, None),
        (2, (7,), 64, 1, 54, None),
        (1, (4,), 63, 7, 2, None),
        (7, (3,), 47, 4, 38, None),
        (5, (2,), 100, 1, 24, None),
        (0, (2,), 10, 3, 8, None),
        (1, (5,), 135, 1, 112, None),
        (4, (1,), 93, 1, 17, None),
        (4, (0,), 127, 5, 94, None),
        (1, (4,), 13, 1, 7, None),
        (6, (0,), 30, 1, 1, None),
    ],
    2002: [
        (4, (0,), 134, 1, 130, None),
        (6, (3,), 200, 1, 122, None),
        (1, (0,), 32, 1, 29, None),
        (6, (1,), 175, 24, 157, None),
        (0, (6,), 21, 1, 5, None),
        (4, (1,), 51, 7, 22, None),
        (0, (3,), 15, 1, 6, None),
        (4, (3,), 16, 2, 4, None),
        (5, (4,), 151, 1, 150, None),
        (6, (5,), 21, 2, 3, None),
        (5, (0,), 142, 1, 121, None),
        (1, (2,), 140, 14, 63, None),
    ],
}

#: The generator's next ``integers(2**62)`` after the uniform draw: the
#: draw consumed exactly the stream it always did.
UNIFORM_NEXT = {7: 1787636157480173958, 2002: 314437885989809704}

#: ``random_connection_set(rng, 6, 5, 0.9, period_range=(5, 1000),
#: multicast_probability=0.5, random_phases=False)``.
MULTICAST = {
    7: [
        (1, (0, 2, 3, 4, 5), 25, 2, 0, None),
        (4, (1, 2, 5), 22, 1, 0, None),
        (5, (1,), 333, 31, 0, None),
        (5, (0, 1, 2, 3, 4), 16, 8, 0, None),
        (2, (3,), 645, 99, 0, None),
    ],
    2002: [
        (0, (1, 3), 196, 5, 0, None),
        (5, (2,), 86, 1, 0, None),
        (0, (1, 2, 3, 4, 5), 9, 1, 0, None),
        (0, (1, 2, 3, 4, 5), 8, 5, 0, None),
        (1, (2,), 285, 30, 0, None),
    ],
}

#: ``random_workload(rng, 8, 12, 0.7, period_range=(10, 200),
#: profile="industrial")``: the uniform draw, then the tight choice.
INDUSTRIAL = {
    7: [
        (5, (1,), 23, 1, 10, None),
        (4, (6,), 138, 1, 109, 55),
        (2, (7,), 64, 1, 54, 26),
        (1, (4,), 63, 7, 2, 25),
        (7, (3,), 47, 4, 38, 19),
        (5, (2,), 100, 1, 24, 40),
        (0, (2,), 10, 3, 8, None),
        (1, (5,), 135, 1, 112, None),
        (4, (1,), 93, 1, 17, None),
        (4, (0,), 127, 5, 94, 51),
        (1, (4,), 13, 1, 7, None),
        (6, (0,), 30, 1, 1, None),
    ],
    2002: [
        (4, (0,), 134, 1, 130, 54),
        (6, (3,), 200, 1, 122, 80),
        (1, (0,), 32, 1, 29, None),
        (6, (1,), 175, 24, 157, 70),
        (0, (6,), 21, 1, 5, None),
        (4, (1,), 51, 7, 22, 20),
        (0, (3,), 15, 1, 6, None),
        (4, (3,), 16, 2, 4, None),
        (5, (4,), 151, 1, 150, 60),
        (6, (5,), 21, 2, 3, 8),
        (5, (0,), 142, 1, 121, None),
        (1, (2,), 140, 14, 63, None),
    ],
}

#: ``profile="ama-andam"``: the fixed suite scaled to 0.7, no draw at all.
AMA_ANDAM = [
    (1, (0,), 132, 32, 0, 132),
    (2, (0,), 263, 25, 0, 105),
    (3, (0,), 658, 180, 0, 658),
    (4, (0,), 395, 35, 0, 158),
]


def rows(connections):
    return [
        (
            c.source,
            tuple(sorted(c.destinations)),
            c.period_slots,
            c.size_slots,
            c.phase_slots,
            c.deadline_slots,
        )
        for c in connections
    ]


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomConnectionSet:
    def test_unicast_draw(self, seed):
        rng = np.random.default_rng(seed)
        drawn = random_connection_set(rng, 8, 12, 0.7, period_range=(10, 200))
        assert rows(drawn) == UNIFORM[seed]
        assert int(rng.integers(2**62)) == UNIFORM_NEXT[seed]

    def test_multicast_draw_without_phases(self, seed):
        drawn = random_connection_set(
            np.random.default_rng(seed),
            6,
            5,
            0.9,
            period_range=(5, 1000),
            multicast_probability=0.5,
            random_phases=False,
        )
        assert rows(drawn) == MULTICAST[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "profile, expected",
    [
        ("uniform", UNIFORM),
        ("industrial", INDUSTRIAL),
        ("ama-andam", {seed: AMA_ANDAM for seed in SEEDS}),
    ],
)
def test_random_workload_draw(seed, profile, expected):
    drawn = random_workload(
        np.random.default_rng(seed),
        8,
        12,
        0.7,
        period_range=(10, 200),
        profile=profile,
    )
    assert rows(drawn) == expected[seed]
