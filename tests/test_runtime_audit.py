"""The blocking-call and host-clock audits of ``tests/runtime_audit.py``.

As in ``tests/test_rng_audit.py``, probe modules compiled under a repo
path are judged like real ``src/`` code, and each test that provokes a
violation takes it off the record itself.  These two audits record and
let the call go on; the guard fails the test.
"""

import asyncio

from tests import runtime_audit
from tests.test_rng_audit import probe


def names(found):
    return [v.split("()")[0] for v in found]


class TestAsyncBlocking:
    def test_sleep_in_service_coroutine(self, tmp_path):
        m = probe(
            "import time, time as _t, subprocess\n"
            "from subprocess import run\n"
            "async def pace(case, log):\n"
            "    if case == 0: time.sleep(0)\n"
            "    if case == 1: _t.sleep(0)\n"
            "    if case == 2: run(['true'])\n"
            "    if case == 3: subprocess.Popen(['true']).wait()\n"
            "    if case == 4: log.write_text('paced')\n"
            "    if case == 5: open(log, 'w').close()\n",
            module="repro.service.pacer",
        )
        for case in range(6):
            asyncio.run(m.pace(case, tmp_path / "log"))
        found = runtime_audit.take_violations()
        assert all("running coroutine pace " in v for v in found)
        assert names(found) == [
            "time.sleep",
            "time.sleep",
            "subprocess.run",
            "subprocess.Popen",
            "os.waitpid",  # Popen.wait()
            "Path.write_text",
            "open",
        ]
        assert "pacer.py:4 blocks" in found[0]

    def test_helper_coroutine_outside_service_fires(self):
        """Any repo coroutine on the stack counts, through sync helpers too."""
        m = probe(
            "import subprocess\n"
            "def _flush(line): subprocess.run(['true'])\n"
            "async def flush_log(line): _flush(line)\n",
            module="repro.ioutil",
        )
        asyncio.run(m.flush_log("x"))
        (found,) = runtime_audit.take_violations()
        assert "ioutil.py:2 blocks" in found and "coroutine flush_log" in found

    def test_quiet_on_asyncio_equivalents(self, tmp_path):
        m = probe(
            "import asyncio, time\n"
            "async def pace(delay): await asyncio.sleep(delay)\n"
            "def measure(path): time.sleep(0); path.write_text('x')\n",
            module="repro.service.yielder",
        )
        asyncio.run(m.pace(0))
        m.measure(tmp_path / "x")

        async def test_coroutine():  # tests/ frames are not judged
            (tmp_path / "y").write_text("y")

        asyncio.run(test_coroutine())
        assert runtime_audit.VIOLATIONS == []


class TestNoWallclockInSim:
    SOURCE = (
        "import time, datetime\n"
        "from time import perf_counter\n"
        "from datetime import datetime as dt\n"
        "READS = [\n"
        "    lambda: time.time(), lambda: time.monotonic(),\n"
        "    lambda: perf_counter(), lambda: time.process_time_ns(),\n"
        "    lambda: datetime.datetime.now(), lambda: dt.today(),\n"
        "]\n"
    )

    def test_fires_on_each_call_form(self):
        m = probe(self.SOURCE, module="repro.traffic.gen")
        for read in m.READS:
            read()
        found = runtime_audit.take_violations()
        assert names(found) == [
            "time.time",
            "time.monotonic",
            "time.perf_counter",
            "time.process_time_ns",
            "datetime.now",
            "datetime.today",
        ]
        assert "gen.py:5 reads the host clock in repro.traffic.gen" in found[0]

    def test_allowlisted_module_exempt(self):
        for module, path in (
            ("repro.sim.profiling", ""),
            ("repro.cli", ""),
            ("bench_probe", "benchmarks/bench_probe.py"),
            ("probe", "tests/probe.py"),
        ):
            for read in probe(self.SOURCE, module=module, path=path).READS:
                read()
        assert runtime_audit.VIOLATIONS == []

    def test_service_module_is_not_exempt(self):
        """Only the allowlisted call sites of a module may read the clock."""
        m = probe(
            "import time\n"
            "class AdmissionService:\n"
            "    async def submit(self): return time.perf_counter()\n"
            "    def _serve(self): return time.perf_counter()\n"
            "    def status(self): return time.perf_counter()\n",
            module="repro.service.server",
        )
        service = m.AdmissionService()
        asyncio.run(service.submit())
        service._serve()
        service.status()
        (found,) = runtime_audit.take_violations()
        assert "in repro.service.server.AdmissionService.status;" in found
