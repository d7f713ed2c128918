import qdisco


def test_every_export_resolves():
    missing = [name for name in qdisco.__all__ if not hasattr(qdisco, name)]
    assert missing == []
