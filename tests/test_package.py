import nestedkrig as nk


def test_public_names_resolve():
    missing = [name for name in nk.__all__ if not hasattr(nk, name)]
    assert missing == []
    assert len(set(nk.__all__)) == len(nk.__all__)
