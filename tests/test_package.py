"""The package namespace."""

import crgeom


def test_all_names_resolve_once():
    names = crgeom.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(crgeom, name)
