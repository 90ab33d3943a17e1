import craft


def test_every_exported_name_resolves_once():
    assert len(craft.__all__) == len(set(craft.__all__))
    for name in craft.__all__:
        assert hasattr(craft, name), name
