# lint-fixture-path: repro/service/pacer.py
"""BAD: blocking calls inside a service-package coroutine, one per
import spelling the rule resolves."""
import time
import time as _t
from pathlib import Path
from subprocess import run


async def pace(delay: float, log: Path) -> None:
    time.sleep(delay)  # blocks the whole event loop
    _t.sleep(delay)
    run(["true"])
    log.write_text("paced")
