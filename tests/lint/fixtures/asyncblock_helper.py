# lint-fixture-path: repro/ioutil.py
"""BAD: a helper coroutine outside repro.service still runs on the loop."""
import subprocess


async def flush_log(line: str) -> None:
    subprocess.run(["logger", line])  # blocking subprocess wait
