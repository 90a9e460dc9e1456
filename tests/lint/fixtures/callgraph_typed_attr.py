# lint-fixture-path: repro/service/caller.py
"""Call-graph fixture (with callgraph_typed_attr_defs): resolving
``self.client.close_lrtc`` needs the annotated attribute's type."""
from repro.service.client import AdmissionClient


class Teardown:
    def __init__(self, client: AdmissionClient) -> None:
        self.client = client

    async def close_all(self, cids: list) -> None:
        for cid in cids:
            self.client.close_lrtc(cid)  # missing await
