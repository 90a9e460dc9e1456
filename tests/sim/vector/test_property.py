"""Property test: random scenarios are bit-identical across engines.

Hypothesis draws whole scenarios -- ring size, utilisation, workload
shape, multicast mix, mapping, drop-late, run length -- and each drawn
scenario runs on both engines.  The final reports must be **equal** (the
dataclass ``==``, not a tolerance), and so must everything derived from
them.  This is the randomised
arm of the differential harness in ``test_differential.py``: that file
pins the known-interesting corners, this one searches for new ones.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mapping import LinearMapping
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector import ckernel
from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation

from tests.core.test_mapping import SQUARE_STEPS
from tests.sim.vector.test_differential import run_engine


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(min_value=3, max_value=16))
    utilisation = draw(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_connections = draw(st.integers(min_value=1, max_value=3 * n_nodes))
    multicast = draw(st.sampled_from([0.0, 0.2, 0.5]))
    drop_late = draw(st.booleans())
    spatial_reuse = draw(st.booleans())
    initial_master = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    mapping = draw(
        st.sampled_from(
            [
                None,
                LinearMapping(horizon_slots=256),
                LinearMapping(horizon_slots=4),
                SQUARE_STEPS,
            ]
        )
    )
    n_slots = draw(st.integers(min_value=1, max_value=900))

    rng = np.random.default_rng(seed)
    conns = random_connection_set(
        rng,
        n_nodes,
        n_connections,
        0.5,
        period_range=(5, 120),
        multicast_probability=multicast,
    )
    conns = scale_connections_to_utilisation(conns, utilisation)
    config = ScenarioConfig(
        n_nodes=n_nodes,
        connections=tuple(conns),
        drop_late=drop_late,
        spatial_reuse=spatial_reuse,
        initial_master=initial_master,
    )
    return config, mapping, n_slots


@given(scenarios())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_scenarios_match(case):
    assert_scenario_matches(case)


@given(scenarios())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_scenarios_match_in_tiny_windows(case):
    """The same search with a compiled message table of two releases,
    so a call compacts it (and grows it) every few slots."""
    with mock.patch.object(ckernel, "_WINDOW_RELEASES", 2):
        assert_scenario_matches(case)


def assert_scenario_matches(case):
    config, mapping, n_slots = case

    def make_sim(engine):
        return build_simulation(
            config, RunOptions(engine=engine, mapping=mapping)
        )

    kwargs = {"chunks": (n_slots,), "extra_steps": 10}
    py_snap, _ = run_engine("python", make_sim, **kwargs)
    vec_snap, vec_sim = run_engine("vector", make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason is None
    labels = ("report", "plan", "slot", "prev_master", "queues")
    for label, expected, actual in zip(labels, py_snap, vec_snap):
        assert actual == expected, f"{label} diverged from the oracle"


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_slots=st.integers(min_value=50, max_value=600),
)
@settings(max_examples=10, deadline=None)
def test_random_fault_plans_match(seed, n_slots):
    """Fault-injection scenarios fall back to the oracle on the vector
    engine; the fallback must still be byte-identical (same code, same
    seeded fault stream), proving engine selection never perturbs it."""
    from repro.sim.fault_models import FaultConfig

    rng = np.random.default_rng(seed)
    conns = random_connection_set(rng, 8, 10, 0.5, period_range=(10, 100))
    config = ScenarioConfig(
        n_nodes=8,
        connections=tuple(conns),
        fault_config=FaultConfig(
            node_mttf_slots=float(200 + seed % 800),
            node_mttr_slots=60.0,
            seed=seed,
        ),
    )

    def make_sim(engine):
        return build_simulation(config, RunOptions(engine=engine))

    kwargs = {"chunks": (n_slots,), "extra_steps": 0}
    py_snap, _ = run_engine("python", make_sim, **kwargs)
    vec_snap, vec_sim = run_engine("vector", make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason == "fault injection active"
    assert vec_snap == py_snap

