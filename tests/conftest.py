"""Shared fixtures for the CCR-EDF test suite."""

from __future__ import annotations

import numpy as np
import pytest

from tests import runtime_audit

# Before the first repro import: a module imported earlier would keep
# the unaudited originals it bound.
runtime_audit.install()

from repro.core.timing import NetworkTiming  # noqa: E402
from repro.phy.link import FibreRibbonLink  # noqa: E402
from repro.ring.topology import RingTopology  # noqa: E402
from tests.runtime_audit import runtime_audit_guard  # noqa: E402,F401  (autouse)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator; reseed per test for isolation."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def ring8() -> RingTopology:
    """An 8-node ring with uniform 10 m links (the default test network)."""
    return RingTopology.uniform(8, link_length_m=10.0)


@pytest.fixture
def timing8(ring8: RingTopology) -> NetworkTiming:
    """Timing model of the default test network."""
    return NetworkTiming(topology=ring8, link=FibreRibbonLink())


@pytest.fixture
def ring4() -> RingTopology:
    return RingTopology.uniform(4, link_length_m=10.0)


@pytest.fixture
def timing4(ring4: RingTopology) -> NetworkTiming:
    return NetworkTiming(topology=ring4, link=FibreRibbonLink())
