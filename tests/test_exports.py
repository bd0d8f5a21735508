"""The package's export list names each public name once, and each one exists."""

import csoc


def test_every_export_resolves_once():
    assert len(csoc.__all__) == len(set(csoc.__all__))
    for name in csoc.__all__:
        getattr(csoc, name)
