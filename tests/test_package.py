"""The package's public names: what ``__all__`` promises must be importable."""

import resvd


def test_every_exported_name_resolves_once():
    assert len(resvd.__all__) == len(set(resvd.__all__))
    missing = [name for name in resvd.__all__ if not hasattr(resvd, name)]
    assert missing == []
