import pytest

from cusplab.polymat import IndicialFamily


@pytest.fixture
def determinant_calls(monkeypatch):
    """List that collects the family of every IndicialFamily.determinant
    call made while the test runs."""
    calls = []
    original = IndicialFamily.determinant

    def determinant(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(IndicialFamily, "determinant", determinant)
    return calls
