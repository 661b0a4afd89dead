"""Array multipliers built from 1-bit adder cells.

Two textbook unsigned array architectures are supported:

* "carry_save": n-1 carry-save rows over the partial products, each
  cell's carry dropping diagonally to the next row, then a final ripple
  merge over the upper result weights; the carry out of the top weight
  is discarded.
* "row_ripple": every row is a full carry-propagate adder whose carries
  ripple within the row; the row's carry-out becomes the accumulator's
  new top bit, so nothing is discarded.  This is the layout with
  n*(n-1) cells, of which the first cell of each row and the top cell
  of row 1 are two-input (half-adder) positions.

Signals are integer ids into a flat evaluation vector; id 0 is the
constant 0, ids 1..n*n are the partial products, and cell outputs are
allocated after those.  Cells are stored in a valid evaluation order,
so running a grid is a single flat loop.

`eval_multiply_many` is the package's one evaluator.  It is bit-sliced:
every signal is a plane of uint64 words carrying one bit of 64 operand
pairs each, every distinct cell table is turned once into its algebraic
normal form (an XOR of AND-monomials over a, b and cin), so a cell costs
a few word-wide AND/XOR operations, and each signal is freed after its
last reader in the cell order.  Its scalar reference, one operand pair
at a time through the same flat loop, is `eval_multiply` in the test
oracles (tests/oracles.py).

A cell is approximate iff the significance (weight) of its sum output
is below the configured degree; approximate cells use the configured
adder tables, everything else uses the exact tables.  The layout alone
decides the constant-fed cells: row_ripple keeps its half-adder
positions on exact tables, as a netlist of plain half adders would,
and carry_save applies the weight rule to every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adders import AdderLibrary, FullAdderSpec

MIN_WIDTH = 2
MAX_WIDTH = 12   # every accepted width is swept exhaustively; see metrics

ARCHITECTURES = ("carry_save", "row_ripple")


@dataclass(frozen=True)
class MultiplierConfig:
    """Width, adder type, approximation degree and array layout."""

    width: int
    adder_type: str
    degree: int
    architecture: str

    def __post_init__(self):
        if not MIN_WIDTH <= self.width <= MAX_WIDTH:
            raise ValueError(f"multipliers support widths up to {MAX_WIDTH} "
                             f"(at least {MIN_WIDTH}), got {self.width}")
        if not 0 <= self.degree <= 2 * self.width:
            raise ValueError(
                f"degree must be in [0, {2 * self.width}] for width {self.width}, "
                f"got {self.degree}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}, "
                             f"got {self.architecture!r}")

    @property
    def half_adders(self) -> str:
        """Tables at the constant-fed cell positions, fixed by the layout:
        "exact" half adders for row_ripple, "approximate" (the weight rule
        like every other cell) for carry_save."""
        return "exact" if self.architecture == "row_ripple" else "approximate"


@dataclass(frozen=True)
class AdderCell:
    row: int         # array row i (1..n-1); -1 for merge cells
    col: int         # array column j; merge cells carry the weight w here
    weight: int      # significance of the sum output
    in_a: int
    in_b: int
    in_cin: int
    out_sum: int
    out_cout: int
    spec: FullAdderSpec
    approximate: bool


@dataclass(frozen=True)
class CellGrid:
    width: int
    config: MultiplierConfig
    cells: tuple[AdderCell, ...]
    output_taps: tuple[int, ...]   # signal id of product bit w, for w = 0..2n-1
    signal_count: int


class _GridBuilder:
    def __init__(self, config: MultiplierConfig, library: AdderLibrary):
        self.config = config
        self.approx_spec = library.get(config.adder_type)
        self.exact_spec = library.get("exact")
        self.next_id = 1 + config.width * config.width
        self.cells: list[AdderCell] = []

    def pp(self, i, j):
        return 1 + i * self.config.width + j

    def cell(self, row, col, weight, a, b, cin):
        approx = weight < self.config.degree
        if approx and self.config.half_adders == "exact" and 0 in (a, b, cin):
            approx = False
        spec = self.approx_spec if approx else self.exact_spec
        out_sum, out_cout = self.next_id, self.next_id + 1
        self.next_id += 2
        self.cells.append(AdderCell(row, col, weight, a, b, cin,
                                    out_sum, out_cout, spec, approx))
        return out_sum, out_cout

    def finish(self, taps, expected_cells) -> CellGrid:
        if len(self.cells) != expected_cells:
            raise RuntimeError(
                f"built {len(self.cells)} cells, expected {expected_cells}")
        return CellGrid(self.config.width, self.config, tuple(self.cells),
                        tuple(taps), self.next_id)


def build_multiplier(config: MultiplierConfig, library: AdderLibrary) -> CellGrid:
    """Wire the configured array architecture into an evaluatable grid."""
    if config.architecture == "row_ripple":
        return _build_row_ripple(config, library)
    return _build_carry_save(config, library)


def _build_carry_save(config: MultiplierConfig, library: AdderLibrary) -> CellGrid:
    n = config.width
    b = _GridBuilder(config, library)
    const0 = 0

    # Row 0 is the bare partial products: S(0, j) = pp[0][j], C(0, j) = 0.
    sum_sig = [b.pp(0, j) for j in range(n)]
    carry_sig = [const0] * n

    taps = [0] * (2 * n)
    taps[0] = b.pp(0, 0)

    for i in range(1, n):
        new_sum = [0] * n
        new_carry = [0] * n
        for j in range(n):
            shifted = sum_sig[j + 1] if j + 1 < n else const0   # S(i-1, n) = 0
            s, c = b.cell(i, j, i + j, b.pp(i, j), shifted, carry_sig[j])
            new_sum[j] = s
            new_carry[j] = c
        sum_sig, carry_sig = new_sum, new_carry
        taps[i] = sum_sig[0]

    # Final ripple merge over weights n .. 2n-1; carry out of the top is discarded.
    ripple = const0
    for w in range(n, 2 * n):
        j = w - n + 1
        top_sum = sum_sig[j] if j < n else const0               # S(n-1, n) = 0
        s, c = b.cell(-1, w, w, top_sum, carry_sig[w - n], ripple)
        taps[w] = s
        ripple = c

    return b.finish(taps, n * (n - 1) + n)


def _build_row_ripple(config: MultiplierConfig, library: AdderLibrary) -> CellGrid:
    n = config.width
    b = _GridBuilder(config, library)
    const0 = 0

    # Accumulator after row 0 is the bare pp row 0; `top` is its bit of
    # weight i-1+n entering row i (0 before row 1 exists).
    acc = [b.pp(0, j) for j in range(n)]
    top = const0

    taps = [0] * (2 * n)
    taps[0] = b.pp(0, 0)

    for i in range(1, n):
        carry = const0
        new_acc = [0] * n
        for j in range(n):
            above = acc[j + 1] if j + 1 < n else top
            s, c = b.cell(i, j, i + j, b.pp(i, j), above, carry)
            new_acc[j] = s
            carry = c
        acc = new_acc
        top = carry
        taps[i] = acc[0]

    for j in range(1, n):
        taps[n - 1 + j] = acc[j]
    taps[2 * n - 1] = top

    return b.finish(taps, n * (n - 1))


def eval_multiply_many(grid: CellGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bit-sliced grid evaluation over parallel operand arrays.

    Each signal is a bit plane of uint64 words holding 64 operand pairs,
    so a partial product is one AND and a cell is the XOR of its tables'
    ANF monomials (see `_anf`), a few word-wide ANDs and XORs.
    Constant-0 signals stay symbolic and drop every monomial they enter;
    a signal is freed after its last reader in the grid's topological
    cell order, and only the output taps are kept to the end.  Returns
    the int64 products in the operands' shape.
    """
    n = grid.width
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.shape != ys.shape:
        raise ValueError("operand arrays must have the same shape")
    if xs.dtype.kind not in "biu" or ys.dtype.kind not in "biu":
        raise TypeError(f"operands must be integer arrays, got {xs.dtype} and {ys.dtype}")
    if xs.size and (int(xs.min()) < 0 or int(xs.max()) >= (1 << n)
                    or int(ys.min()) < 0 or int(ys.max()) >= (1 << n)):
        raise ValueError(f"operands out of range for width {n}")

    count = xs.size
    words = -(-count // 64)
    xp = _pack_planes(xs.ravel(), n, words)
    yp = _pack_planes(ys.ravel(), n, words)
    ones = np.full(words, np.uint64(0xFFFF_FFFF_FFFF_FFFF))
    pp_count = n * n

    def read(s):
        # partial products are formed where they are read; None is constant 0
        if s == 0:
            return None
        if s <= pp_count:
            i, j = divmod(s - 1, n)
            return xp[i] & yp[j]
        return sig[s]

    taps = set(grid.output_taps)
    last_use: dict[int, int] = {}
    for k, cell in enumerate(grid.cells):
        for s in (cell.in_a, cell.in_b, cell.in_cin):
            last_use[s] = k

    sig: dict[int, np.ndarray | None] = {}
    for k, cell in enumerate(grid.cells):
        inputs = {4: read(cell.in_a), 2: read(cell.in_b), 1: read(cell.in_cin)}
        terms: dict[int, np.ndarray | None] = {0: ones}
        for out, bits in ((cell.out_sum, cell.spec.sum_bits),
                          (cell.out_cout, cell.spec.cout_bits)):
            if out in last_use or out in taps:
                sig[out] = _xor_monomials(_anf(bits), inputs, terms)
        for s in (cell.in_a, cell.in_b, cell.in_cin):
            if last_use.get(s) == k and s > pp_count and s not in taps:
                del sig[s]

    tap_words = np.zeros((2 * n, words), dtype="<u8")
    for w, tap in enumerate(grid.output_taps):
        plane = read(tap)
        if plane is not None:
            tap_words[w] = plane
    return _unpack_products(tap_words, count).reshape(xs.shape)


@lru_cache(maxsize=256)
def _anf(bits: tuple[int, ...]) -> tuple[int, ...]:
    """Monomials of a table's algebraic normal form (Moebius transform).

    Row idx = 4*a + 2*b + cin; monomial m is the AND of the inputs whose
    bit is set in m (4 = a, 2 = b, 1 = cin, 0 = the constant 1), and
    the table is the XOR of its monomials.
    """
    coef = list(bits)
    for k in (1, 2, 4):
        for idx in range(8):
            if idx & k:
                coef[idx] ^= coef[idx ^ k]
    return tuple(m for m in range(8) if coef[m])


def _xor_monomials(monomials, inputs, terms):
    """XOR of the monomials' words; None when every monomial is constant 0.

    `terms` caches each monomial's word across a cell's two outputs.  The
    result is written in place only once it is a fresh array, never an
    input's or a cached term's buffer.
    """
    result = None
    fresh = False
    for m in monomials:
        word = _monomial(m, inputs, terms)
        if word is None:
            continue
        if result is None:
            result = word
        elif fresh:
            result ^= word
        else:
            result = result ^ word
            fresh = True
    return result


def _monomial(m, inputs, terms):
    """Word of monomial m, memoised in `terms`; None when it is constant 0."""
    if m not in terms:
        low = m & -m
        word = inputs[low]
        if m != low and word is not None:
            rest = _monomial(m ^ low, inputs, terms)
            word = None if rest is None else word & rest
        terms[m] = word
    return terms[m]


def _pack_planes(values: np.ndarray, n: int, words: int) -> np.ndarray:
    """Bit planes of `values` (width <= 16), 64 lanes per little-endian word."""
    planes = np.zeros((n, 8 * words), dtype=np.uint8)
    lanes = values.astype("<u2").view(np.uint8).reshape(-1, 2)
    low_high = [np.ascontiguousarray(lanes[:, byte]) for byte in range(2)]
    for i in range(n):
        packed = np.packbits(low_high[i >> 3] & (1 << (i & 7)), bitorder="little")
        planes[i, :packed.size] = packed
    return planes.view("<u8")


def _unpack_products(tap_words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of the packing: lane p's product bits from the tap planes."""
    out = np.zeros((count, 8), dtype=np.uint8)
    tap_bytes = tap_words.view(np.uint8)
    for lo in range(0, tap_words.shape[0], 8):
        byte = np.unpackbits(tap_bytes[lo], count=count, bitorder="little")
        for k in range(1, min(8, tap_words.shape[0] - lo)):
            bits = np.unpackbits(tap_bytes[lo + k], count=count, bitorder="little")
            bits <<= k
            byte |= bits
        out[:, lo // 8] = byte
    return out.view("<i8").ravel().astype(np.int64, copy=False)

