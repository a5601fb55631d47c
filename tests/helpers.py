"""Small readers and builders of engine state that only tests need."""

from __future__ import annotations

import gc
import tempfile

from storbind.broker import StorageBroker
from storbind.model import DiskSpec, LayoutKind, Raid, StorageNode, VolumeType
from storbind.report import run_to_directory
from storbind.scenario import Scenario
from storbind.scheduler import VolumeRequest
from storbind.sim import Row, RowBlock, row_block

TiB = 1024**4
GiB = 1024**3

RAID6_4 = Raid(width=4, parity_count=2)


def make_nodes(spec: dict[str, int], capacity: int = TiB) -> list[StorageNode]:
    """One node per `spec` entry, holding that many disks of `capacity` bytes."""
    return [
        StorageNode(
            node_id=node_id,
            disks=tuple(
                DiskSpec(disk_id=f"{node_id}-d{i:02d}", capacity_bytes=capacity)
                for i in range(count)
            ),
        )
        for node_id, count in spec.items()
    ]


def req(
    request_id: str, *, layout: LayoutKind = RAID6_4, min_iops: int = 100, size: int = 100 * GiB
) -> VolumeRequest:
    """A create of one volume of type `t`."""
    vtype = VolumeType(name="t", layout=layout, min_iops=min_iops)
    return VolumeRequest(request_id=request_id, volume_type=vtype, size_bytes=size)


def free_disk_count(broker: StorageBroker) -> dict[str, int]:
    """Each node's free disk count, in node_id order."""
    return {node_id: len(broker.free_disk_specs(node_id)) for node_id in sorted(broker.nodes)}


def block_of(rows: list[Row]) -> RowBlock:
    """The row block `row_block` builds from these rows, their ids distinct."""
    caps = {vid: cap for vid, _, _, cap in rows if cap is not None}
    return row_block(
        tuple(vid for vid, *_ in rows), [row[1] for row in rows], [row[2] for row in rows], caps
    )


def cyclic_garbage_of_run(scenario: Scenario, seed: int, static_layout: LayoutKind | None) -> int:
    """How many objects only the cyclic collector frees once a run is dropped.

    The collector is off from a clean start until the run's result and its
    output directory are gone, and `gc.isenabled()` is restored after.
    Load the scenario first: the pure-Python YAML loader makes cycles of its own.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory() as name:
            run_to_directory(scenario, name, seed=seed, static_layout=static_layout)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()
