"""The RNG audit of ``tests/runtime_audit.py`` and the seed-fork check.

The unit tests run small probe modules compiled under a repo path, so
their frames are judged like real ``src/`` or ``examples/`` code.  Each
test that provokes a violation takes it off the record itself, so the
autouse guard stays quiet.  ``test_every_stream_follows_the_master_seed``
is the literal-fork check: two runs with different master seeds must
not share one stream.
"""

from __future__ import annotations

import asyncio
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro import cli
from repro.campaign import Campaign, ResultStore, WorkloadSpec, run_campaign
from repro.service import AdmissionClient, AdmissionService, ChurnDriver
from repro.sim.batch import AVAILABILITY_METRICS, replicate
from repro.sim.fault_models import FaultConfig
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.traffic.periodic import random_connection_set

from tests import runtime_audit
from tests.runtime_audit import RngAuditError

#: Packages whose streams must all follow the master seed.
SEEDED_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.campaign",
    "repro.traffic",
    "repro.service",
)


def probe(source: str, module: str = "repro.sim.probe", path: str = ""):
    """Run ``source`` as module ``module`` stored at repo path ``path``.

    The top level runs as an import of that module; the functions it
    defines are returned as attributes of a namespace.
    """
    path = path or "src/" + module.replace(".", "/") + ".py"
    namespace = {"__name__": module, "np": np, "random": random}
    code = compile(source, str(runtime_audit.REPO_ROOT / path), "exec")
    exec(code, namespace)
    return SimpleNamespace(**namespace)


def shared_streams(first, second):
    """Stream keys built from the seeded packages in both recordings."""

    def keys(built):
        return {
            c.key
            for c in built
            if any(
                c.module == p or c.module.startswith(p + ".")
                for p in SEEDED_PACKAGES
            )
        }

    return keys(first) & keys(second)


def under_two_seeds(entry):
    """The constructions ``entry(master)`` makes under master seeds 1 and 2."""
    recordings = []
    for master in (1, 2):
        with runtime_audit.recording() as built:
            entry(master)
        recordings.append(built)
    return recordings


def test_installed_before_any_repro_import():
    assert runtime_audit.PREINSTALLED == ()
    assert np.random.default_rng is runtime_audit.default_rng
    assert isinstance(random.Random(1), runtime_audit.Random)
    assert isinstance(np.random.SeedSequence(1), np.random.bit_generator.SeedSequence)


class TestUnseeded:
    def test_fires_on_each_constructor_form(self):
        m = probe(
            "def rng(): return np.random.default_rng()\n"
            "def rng_none(): return np.random.default_rng(seed=None)\n"
            "def seq(): return np.random.SeedSequence()\n"
            "def state(): return np.random.RandomState(None)\n"
            "def stdlib(): return random.Random(x=None)\n"
        )
        for ctor in (m.rng, m.rng_none, m.seq, m.state, m.stdlib):
            with pytest.raises(RngAuditError, match="has no entropy"):
                ctor()
        found = runtime_audit.take_violations()
        assert [v.split("()")[0] for v in found] == [
            "default_rng",
            "default_rng",
            "SeedSequence",
            "RandomState",
            "Random",
        ]
        assert all("probe.py:" in v for v in found)

    def test_quiet_when_seeded_or_threaded(self):
        m = probe(
            "def build(seed, rng):\n"
            "    children = np.random.SeedSequence(entropy=seed).spawn(2)\n"
            "    return (np.random.default_rng(children[0]),\n"
            "            np.random.default_rng(rng), random.Random(seed),\n"
            "            np.random.RandomState(seed=seed))\n"
        )
        m.build(7, np.random.default_rng(1))
        assert runtime_audit.VIOLATIONS == []

    def test_cli_module_may_mint_entropy(self):
        m = probe(
            "def main(seed=None): return np.random.default_rng(seed)\n",
            module="repro.cli",
        )
        m.main()
        assert runtime_audit.VIOLATIONS == []

    def test_unseeded_stdlib_random_outside_the_five_packages(self):
        m = probe(
            "def sweep():\n"
            "    seeded = random.Random(7)\n"
            "    return seeded, random.Random()\n",
            module="sweep",
            path="examples/sweep.py",
        )
        with pytest.raises(RngAuditError, match="has no entropy"):
            m.sweep()
        (found,) = runtime_audit.take_violations()
        assert found.startswith("Random() at ")
        assert "examples/sweep.py:3" in found

    def test_unseeded_constructor_in_helper(self):
        m = probe(
            "def _fresh_generator():\n"
            "    return np.random.default_rng()\n"
            "def build(n):\n"
            "    return [_fresh_generator() for _ in range(n)]\n"
        )
        with pytest.raises(RngAuditError):
            m.build(2)
        (found,) = runtime_audit.take_violations()
        assert "probe.py:2" in found

    def test_a_caught_violation_is_still_recorded(self):
        m = probe(
            "def tolerant():\n"
            "    try:\n"
            "        return np.random.default_rng()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert m.tolerant() is None
        assert len(runtime_audit.take_violations()) == 1


class TestImportTime:
    def test_fires_on_positional_and_kwonly_defaults(self):
        for source in (
            "def f(n, rng=np.random.default_rng(0)): pass\n",
            "def g(*, rng=np.random.default_rng(0)): pass\n",
            "RNG = random.Random(3)\n",
        ):
            with pytest.raises(RngAuditError, match="repro.traffic.gen is imported"):
                probe(source, module="repro.traffic.gen")
        assert len(runtime_audit.take_violations()) == 3

    def test_quiet_on_none_default(self):
        m = probe(
            "def f(n, rng=None):\n"
            "    return np.random.default_rng(n) if rng is None else rng\n",
            module="repro.traffic.gen",
        )
        m.f(3)
        assert runtime_audit.VIOLATIONS == []

    def test_script_body_is_not_an_import(self):
        probe(
            "rng = np.random.default_rng(7)\n",
            module="__main__",
            path="examples/script.py",
        )
        assert runtime_audit.VIOLATIONS == []


class TestScope:
    def test_tests_and_site_packages_frames_are_not_judged(self):
        np.random.default_rng()
        random.Random()
        probe("rng = np.random.default_rng()\n", module="t", path="tests/t.py")
        assert runtime_audit.VIOLATIONS == []
        assert not runtime_audit._is_repo(np.__file__)
        assert runtime_audit._is_repo(cli.__file__)


class TestLiteralFork:
    SOURCE = (
        "def make_rng(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "def direct_fork(master):\n"
        "    return np.random.default_rng(1234)\n"
        "def indirect_fork(master):\n"
        "    return make_rng(99)\n"
        "def chain(master):\n"
        "    children = np.random.SeedSequence(master).spawn(2)\n"
        "    return [make_rng(child) for child in children]\n"
    )

    def test_literal_forks_direct_and_interprocedural(self):
        m = probe(self.SOURCE, module="repro.sim.badseed")
        assert shared_streams(*under_two_seeds(m.direct_fork)) == {("1234", ())}
        assert shared_streams(*under_two_seeds(m.indirect_fork)) == {("99", ())}

    def test_quiet_on_provenance_preserving_chain(self):
        m = probe(self.SOURCE, module="repro.sim.badseed")
        first, second = under_two_seeds(m.chain)
        assert {c.constructor for c in first} == {"SeedSequence", "default_rng"}
        assert shared_streams(first, second) == set()


def _build(rng: np.random.Generator):
    connections = random_connection_set(
        rng, n_nodes=4, n_connections=3, total_utilisation=0.5
    )
    config = ScenarioConfig(
        n_nodes=4,
        connections=tuple(connections),
        fault_config=FaultConfig(
            p_distribution_loss=0.01, seed=int(rng.integers(2**31))
        ),
    )
    return build_simulation(config, RunOptions())


async def _storm(seed: int) -> None:
    async with AdmissionService(ScenarioConfig(n_nodes=8)) as service:
        driver = ChurnDriver(AdmissionClient(service), seed=seed, n_nodes=8)
        await driver.run(4)


def test_every_stream_follows_the_master_seed(tmp_path):
    """No stream of the seeded packages survives a change of master seed."""

    def entry_points(master):
        replicate(
            _build,
            n_slots=200,
            metrics=AVAILABILITY_METRICS,
            n_replications=2,
            master_seed=master,
            n_jobs=1,
        )
        campaign = Campaign(
            name="audit",
            base=ScenarioConfig(n_nodes=4),
            n_slots=200,
            axes={"utilisation": (0.4, 0.8)},
            workload=WorkloadSpec(n_connections=3),
            n_replications=1,
            master_seed=master,
        )
        run_campaign(campaign, ResultStore(tmp_path / str(master)), n_jobs=1)
        asyncio.run(_storm(master))
        assert cli.main(
            [
                "simulate", "--nodes", "4", "--slots", "300",
                "--seed", str(master), "--fault-seed", str(master),
                "--fault-distribution-loss", "0.01",
            ]
        ) == 0

    recordings = under_two_seeds(entry_points)
    for built in recordings:
        assert {c.module for c in built} >= {
            "repro.sim.batch",
            "repro.sim.fault_models",
            "repro.campaign.executor",
            "repro.service.churn",
        }
    assert shared_streams(*recordings) == set()
