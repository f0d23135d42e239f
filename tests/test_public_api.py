import driverlens


def test_every_exported_name_resolves_once():
    names = driverlens.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(driverlens, name)]
    assert missing == []

