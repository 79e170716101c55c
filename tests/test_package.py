"""The package's public surface."""

from __future__ import annotations

import diffnet


def test_every_exported_name_resolves():
    missing = [name for name in diffnet.__all__ if not hasattr(diffnet, name)]
    assert missing == []
