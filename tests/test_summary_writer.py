"""The summary writer's memory: it writes in bounded chunks, not as one text."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

from storbind.report import write_summary_json


def _flat_requests(count: int) -> list[dict]:
    """`count` request entries shaped as a run's summary holds them."""
    return [
        {
            "op": "create",
            "request_id": f"r{i:06d}",
            "type": "raid6",
            "size_bytes": 8796093022208 + i,
            "time_s": i / 8,
            "result": "admitted",
            "volume_id": f"vol-r{i:06d}",
            "impl_id": f"impl-{i % 997:04d}",
        }
        for i in range(count)
    ]


def test_the_summary_writer_peaks_far_below_the_files_size(tmp_path: Path):
    summary = {"counts": {"admitted": 20_000}, "requests": _flat_requests(20_000)}
    path = tmp_path / "summary.json"
    tracemalloc.start()
    try:
        write_summary_json(summary, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    # one joined text would hold the whole file, and its encoded bytes once more
    assert peak < size / 4, (peak, size)
    assert path.read_text() == json.dumps(summary, indent=2, sort_keys=True) + "\n"
