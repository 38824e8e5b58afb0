from fractions import Fraction

import pytest

from essedge.gaussian import (GaussianRational, parse_gaussian,
                              format_gaussian, ONE)


def test_parse_format_round_trip():
    for text in ["2*i", "-1+2*i", "3/5+1/5*i", "-1", "1/5+2/5*i", "2",
                 "1/2+1/2*i", "0", "-i", "7/3"]:
        z = parse_gaussian(text)
        assert parse_gaussian(format_gaussian(z)) == z


def test_field_operations():
    a = parse_gaussian("3/5+1/5*i")
    b = parse_gaussian("-1+2*i")
    assert (a * b) / b == a
    assert a + b - b == a
    assert (ONE / a) * a == ONE
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", "1/0*i", "2+3/0*i"):
        with pytest.raises(ValueError, match="zero denominator") as info:
            parse_gaussian(text)
        assert repr(text) in str(info.value)
        assert not isinstance(info.value, ZeroDivisionError)


def test_triple_product_identity():
    for text in ["2*i", "-1+2*i", "3/5+1/5*i", "-1", "2"]:
        z = parse_gaussian(text)
        zp = ONE / (ONE - z)
        zpp = ONE - ONE / z
        assert z * zp * zpp == GaussianRational(-1)


def test_real_values_hash_as_their_numbers():
    for value in (3, Fraction(-7, 5), 0):
        z = GaussianRational(value)
        assert z == value
        assert hash(z) == hash(value)
        assert len({z, value}) == 1
        assert {value: "x"}.get(z) == "x"
    assert len({GaussianRational(3, 1), GaussianRational(3)}) == 2
