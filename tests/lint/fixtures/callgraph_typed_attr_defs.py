# lint-fixture-path: repro/service/client.py
"""Async client definitions for the callgraph_typed_attr fixture."""


class AdmissionClient:
    async def close_lrtc(self, connection_id: int) -> None:
        return None
