# lint-fixture-path: repro/service/fire.py
"""Call-graph fixture: a coroutine calling a project coroutine and a
stdlib one as bare statements (``->`` and ``~>`` edges)."""
import asyncio


async def ping() -> None:
    await asyncio.sleep(0)


async def go() -> None:
    ping()  # dropped project coroutine: never runs
    asyncio.sleep(1)  # dropped stdlib coroutine
