"""Small readers and builders of engine state that only tests need."""

from __future__ import annotations

import gc
import tempfile

from storbind.broker import StorageBroker
from storbind.model import LayoutKind
from storbind.report import run_to_directory
from storbind.scenario import Scenario
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
