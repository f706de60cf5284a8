import nonlocal_nls


def test_public_names_resolve_once():
    names = nonlocal_nls.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nonlocal_nls, name)]
    assert not missing
