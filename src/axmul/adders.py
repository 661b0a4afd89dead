"""Truth-table full adders and adder libraries.

A full adder is modelled purely behaviourally: two 8-entry bit tables
(sum and carry-out), indexed by ``idx = 4*A + 2*B + Cin``.  Approximate
adders are data, not code -- they are loaded from a JSON library file and
never hard-coded in the engine; axmul reads libraries but never writes them.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

EXACT_NAME = "exact"
EXACT_SUM_BITS = "01101001"
EXACT_COUT_BITS = "00010111"
# the longest output file name is clusters_<name>_d24_ned.txt, 21 bytes more
# than the name, and most file systems cap a name at 255 bytes
MAX_NAME_BYTES = 255 - 21


class AdderFormatError(ValueError):
    """A library file cannot be read, or its document (or an entry) is malformed."""


class UnknownAdderError(KeyError):
    """An adder name did not resolve in the library."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class FullAdderSpec:
    """One full-adder behaviour: 8 sum bits and 8 carry bits, idx = 4A+2B+Cin."""

    name: str
    sum_bits: tuple[int, ...]
    cout_bits: tuple[int, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("adder name must be non-empty")
        for field in ("sum_bits", "cout_bits"):
            bits = getattr(self, field)
            if len(bits) != 8 or any(b not in (0, 1) for b in bits):
                raise ValueError(f"{self.name}: {field} must be 8 bits of 0/1")


def _parse_bits(name: str, field: str, text) -> tuple[int, ...]:
    if not isinstance(text, str):
        raise AdderFormatError(f"entry {name!r}: {field} must be a string")
    if len(text) != 8:
        raise AdderFormatError(
            f"entry {name!r}: {field} has length {len(text)}, expected 8")
    if any(ch not in "01" for ch in text):
        raise AdderFormatError(f"entry {name!r}: {field} contains non-binary characters")
    return tuple(int(ch) for ch in text)


@lru_cache(maxsize=1)
def exact_full_adder() -> FullAdderSpec:
    """Reference behaviour (sum = 3-input XOR, carry = majority), from the bit strings."""
    return FullAdderSpec(EXACT_NAME,
                         _parse_bits(EXACT_NAME, "sum_bits", EXACT_SUM_BITS),
                         _parse_bits(EXACT_NAME, "cout_bits", EXACT_COUT_BITS))


def error_profile(spec: FullAdderSpec) -> tuple[list[int], list[int]]:
    """The sum-table and carry-table rows where `spec` disagrees with the exact adder."""
    exact = exact_full_adder()
    return ([i for i in range(8) if spec.sum_bits[i] != exact.sum_bits[i]],
            [i for i in range(8) if spec.cout_bits[i] != exact.cout_bits[i]])


class AdderLibrary:
    """Ordered, name-unique collection of full-adder specs.

    Always contains an entry named "exact"; if the source document omits
    it, the canonical exact adder is appended.
    """

    def __init__(self, specs: Iterable[FullAdderSpec] = ()):
        self._entries: dict[str, FullAdderSpec] = {}
        for spec in specs:
            if spec.name in self._entries:
                raise AdderFormatError(f"duplicate adder name {spec.name!r}")
            if spec.name == EXACT_NAME and spec != exact_full_adder():
                raise AdderFormatError(
                    f"entry {EXACT_NAME!r}: tables do not match the exact full adder "
                    f"(expected sum_bits {EXACT_SUM_BITS!r}, cout_bits {EXACT_COUT_BITS!r})")
            self._entries[spec.name] = spec
        self._entries.setdefault(EXACT_NAME, exact_full_adder())

    def get(self, name: str) -> FullAdderSpec:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownAdderError(
                f"unknown adder type {name!r}; library has {sorted(self._entries)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.values())


def load_library(document: str) -> AdderLibrary:
    """Parse a JSON adder-library document.

    The document is a top-level list of objects with fields ``name`` (non-
    empty, at most MAX_NAME_BYTES bytes in UTF-8, without '/', '\\', control
    characters or surrogates), ``sum_bits`` and ``cout_bits`` (8-character
    '0'/'1' strings, position i = truth-table index i).
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise AdderFormatError(f"library document is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise AdderFormatError("library document must be a top-level list of entries")

    specs = []
    for pos, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise AdderFormatError(f"entry #{pos} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise AdderFormatError(f"entry #{pos}: missing or empty name")
        # names become parts of output file names, SVG text and printed lines
        if any(ch in "/\\" or unicodedata.category(ch) in ("Cc", "Cs") for ch in name):
            raise AdderFormatError(
                f"entry #{pos}: name {name!r} contains a path separator, a "
                "control character or a surrogate")
        size = len(name.encode("utf-8"))
        if size > MAX_NAME_BYTES:
            raise AdderFormatError(
                f"entry #{pos}: name is {size} bytes in UTF-8; at most "
                f"{MAX_NAME_BYTES} fit in an output file name")
        for field in ("sum_bits", "cout_bits"):
            if field not in entry:
                raise AdderFormatError(f"entry {name!r}: missing field {field!r}")
        specs.append(FullAdderSpec(
            name,
            _parse_bits(name, "sum_bits", entry["sum_bits"]),
            _parse_bits(name, "cout_bits", entry["cout_bits"]),
        ))
    return AdderLibrary(specs)


def load_library_file(path) -> AdderLibrary:
    try:
        with open(path, encoding="utf-8") as fh:
            document = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise AdderFormatError(f"cannot read library file {path}: {reason}") from None
    return load_library(document)
