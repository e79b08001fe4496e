"""The package's public surface."""

import genopt


def test_all_names_resolve_and_are_unique():
    assert len(genopt.__all__) == len(set(genopt.__all__))
    for name in genopt.__all__:
        assert hasattr(genopt, name), name
