"""The package's public names: `tropibary.__all__` lists each once, none
private, and every one of them imports."""

import tropibary


def test_public_names_are_unique_public_and_resolve():
    names = tropibary.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if n.startswith("_")] == []
    assert [n for n in names if not hasattr(tropibary, n)] == []
