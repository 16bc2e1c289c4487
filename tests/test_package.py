import qoesched


def test_every_export_resolves():
    missing = [name for name in qoesched.__all__ if not hasattr(qoesched, name)]
    assert missing == []
