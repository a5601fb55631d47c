"""Small readers and builders of engine state that only tests need."""

from __future__ import annotations

from storbind.broker import StorageBroker
from storbind.sim import Row, RowBlock, row_block


def free_disk_count(broker: StorageBroker) -> dict[str, int]:
    """Each node's free disk count, in node_id order."""
    return {node_id: len(broker.free_disk_specs(node_id)) for node_id in sorted(broker.nodes)}


def block_of(rows: list[Row]) -> RowBlock:
    """The row block `row_block` builds from these rows, their ids distinct."""
    caps = {vid: cap for vid, _, _, cap in rows if cap is not None}
    return row_block(
        tuple(vid for vid, *_ in rows), [row[1] for row in rows], [row[2] for row in rows], caps
    )
