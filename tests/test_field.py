import pytest

from posetcode.field import PrimeField
from posetcode.linear import RowKernel
from posetcode.selftest import _field_axioms


def test_rejects_composite_and_out_of_range_characteristic():
    for bad in (0, 1, 4, 6, 9, 1 << 16, (1 << 16) + 1):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_accepts_primes():
    for p in (2, 3, 5, 7, 11, 65521):
        assert PrimeField(p).p == p


def test_elements_are_immutable():
    field = PrimeField(5)
    with pytest.raises(Exception):
        field.p = 7


def test_selftest_field_axioms_check_the_packed_kernel(monkeypatch):
    assert _field_axioms()
    # every c * row comes back as 1 * row: wrong from c = 2 on, over GF(3)
    monkeypatch.setattr(RowKernel, "scale", lambda self, row, c: row)
    assert not _field_axioms()
