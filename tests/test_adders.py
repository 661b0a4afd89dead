import json

import pytest

from axmul.adders import (AdderFormatError, FullAdderSpec,
                          UnknownAdderError, error_profile,
                          exact_full_adder, load_library)

CANONICAL_DOC = json.dumps(
    [{"name": "exact", "sum_bits": "01101001", "cout_bits": "00010111"}])


def test_exact_tables_match_enumeration():
    spec = exact_full_adder()
    for idx in range(8):
        a, b, cin = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        assert spec.sum_bits[idx] == (a + b + cin) % 2
        assert spec.cout_bits[idx] == ((a + b + cin) >= 2)
    assert spec.sum_bits == (0, 1, 1, 0, 1, 0, 0, 1)
    assert spec.cout_bits == (0, 0, 0, 1, 0, 1, 1, 1)
    assert spec.name == "exact"


@pytest.mark.parametrize("inputs,expected", [
    ((0, 0, 0), (0, 0)),
    ((1, 0, 1), (0, 1)),
    ((1, 1, 1), (1, 1)),
])
def test_eval_exact(inputs, expected):
    a, b, cin = inputs
    spec = exact_full_adder()
    idx = 4 * a + 2 * b + cin
    assert (spec.sum_bits[idx], spec.cout_bits[idx]) == expected


def test_eval_zero_adder_constant(zero_adder):
    for idx in range(8):
        assert (zero_adder.sum_bits[idx], zero_adder.cout_bits[idx]) == (0, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        FullAdderSpec("bad", (0,) * 7, (0,) * 8)
    with pytest.raises(ValueError):
        FullAdderSpec("bad", (0,) * 8, (0, 1, 2, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        FullAdderSpec("", (0,) * 8, (0,) * 8)


def test_load_canonical_exact_only():
    lib = load_library(CANONICAL_DOC)
    assert list(lib) == [exact_full_adder()]
    assert lib.get("exact") == exact_full_adder()


def test_load_injects_exact():
    doc = json.dumps([{"name": "ZERO", "sum_bits": "00000000",
                       "cout_bits": "00000000"}])
    lib = load_library(doc)
    assert [spec.name for spec in lib] == ["ZERO", "exact"]
    assert lib.get("exact") == exact_full_adder()


def test_load_rejects_short_bits():
    doc = json.dumps([{"name": "BROKEN", "sum_bits": "0110100",
                       "cout_bits": "00010111"}])
    with pytest.raises(AdderFormatError, match="BROKEN.*sum_bits"):
        load_library(doc)


def test_load_rejects_non_binary():
    doc = json.dumps([{"name": "BROKEN", "sum_bits": "0110100x",
                       "cout_bits": "00010111"}])
    with pytest.raises(AdderFormatError, match="BROKEN.*sum_bits"):
        load_library(doc)


def test_load_rejects_duplicates():
    doc = json.dumps([
        {"name": "A", "sum_bits": "00000000", "cout_bits": "00000000"},
        {"name": "A", "sum_bits": "00000000", "cout_bits": "00000000"},
    ])
    with pytest.raises(AdderFormatError, match="duplicate"):
        load_library(doc)


def test_load_rejects_wrong_exact_tables():
    doc = json.dumps([{"name": "exact", "sum_bits": "11111111",
                       "cout_bits": "00010111"}])
    with pytest.raises(AdderFormatError, match="exact"):
        load_library(doc)


def test_load_rejects_missing_field():
    doc = json.dumps([{"name": "A", "sum_bits": "00000000"}])
    with pytest.raises(AdderFormatError, match="cout_bits"):
        load_library(doc)


def test_load_rejects_non_json():
    with pytest.raises(AdderFormatError):
        load_library("not json at all {")
    with pytest.raises(AdderFormatError):
        load_library(json.dumps({"name": "A"}))


def test_unknown_name_resolution(small_library):
    with pytest.raises(UnknownAdderError, match="NOPE"):
        small_library.get("NOPE")


def test_error_profile_exact_is_empty():
    assert error_profile(exact_full_adder()) == ([], [])


def test_error_profile_zero(zero_adder):
    assert error_profile(zero_adder) == ([1, 2, 4, 7], [3, 5, 6, 7])


def test_error_profile_single_flip():
    bits = list(exact_full_adder().sum_bits)
    bits[7] ^= 1
    spec = FullAdderSpec("flip7", tuple(bits), exact_full_adder().cout_bits)
    assert error_profile(spec) == ([7], [])


def test_zero_error_count_implies_exact_tables(small_library):
    for spec in small_library:
        if error_profile(spec) == ([], []):
            assert spec.sum_bits == exact_full_adder().sum_bits
            assert spec.cout_bits == exact_full_adder().cout_bits
