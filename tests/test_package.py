"""The package's public surface: every exported name resolves."""

import pytest

import vcmamba


@pytest.mark.parametrize("name", vcmamba.__all__)
def test_exported_name_resolves(name):
    assert hasattr(vcmamba, name)
