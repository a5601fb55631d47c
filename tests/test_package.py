"""The package's public name list."""

from __future__ import annotations

import storbind


def test_all_names_resolve_once():
    assert len(storbind.__all__) == len(set(storbind.__all__))
    missing = [name for name in storbind.__all__ if not hasattr(storbind, name)]
    assert missing == []
