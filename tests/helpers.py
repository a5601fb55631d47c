"""Small readers of control-plane state that only tests need."""

from __future__ import annotations

from storbind.broker import StorageBroker


def free_disk_count(broker: StorageBroker) -> dict[str, int]:
    """Each node's free disk count, in node_id order."""
    return {node_id: len(broker.free_disk_specs(node_id)) for node_id in sorted(broker.nodes)}
