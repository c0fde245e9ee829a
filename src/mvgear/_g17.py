"""
The exact ``'%.17g' % x`` text of float arrays, with numpy operations only.

:func:`format_cells` formats every value of an array at once, and
:func:`text` lays out rows of such cells, as :func:`joined` does for the
JSON text of a square matrix; both run :data:`CHUNK` values at a time.
:mod:`mvgear.serialize` imports this module on first use, for a symmetric
matrix or a surface of at least ``serialize.KERNEL_MIN`` values, so a
process that writes neither never compiles or runs it.
"""

from __future__ import annotations

import numpy as np

# Values per pass of the kernel and cells per piece of text. It bounds the
# temporary arrays, and keeps each under glibc's 128 KiB mmap threshold, so
# they come from the heap and do not fault in fresh pages every pass.
CHUNK = 4096
# The widest %.17g text, "-1.2345678901234567e-123".
CELL = 24
# The kernel certifies 1e-250 <= |x| < 1e250, where no product it forms
# leaves the normal range, and a scaled value whose fraction is at least
# _TIE_MARGIN from one half: its error is below 2^-47.
_LOW, _HIGH = 1e-250, 1e250
_TIE_MARGIN = 2.0 ** -36
# The exponents p of the 10^p the kernel scales by, 16 - k for the decimal
# exponents k of [_LOW, _HIGH) and their neighbours.
_P_MIN, _P_MAX = -236, 268
# Dekker's splitter 2^27 + 1: a double splits into two halves of 26 bits
# whose products with another split are exact.
_SPLIT = 134217729.0
# The kernel's tables, made on first use, so importing costs nothing:
# "pow10", hi, lo and hi's halves of 10^p in row p - _P_MIN (a zero hi
# until that p is first needed); "quads", the four ASCII digits of each of
# 0..9999 as one uint32; "zeros", each one's trailing zeros (4 for 0);
# "lead", the first word of a digit row (:func:`_layout`) for a first digit
# d, "\0\0\0d" for fixed notation (d) and "\0\0d." for scientific (10 + d).
_TABLES: dict[str, np.ndarray] = {}


def _tables() -> dict[str, np.ndarray]:
    if not _TABLES:
        digit = np.arange(48, 58, dtype=np.uint8)
        quads = np.stack([np.tile(digit.repeat(10 ** (3 - i)), 10 ** i) for i in range(4)], axis=1)
        lead = np.zeros((2, 10, 4), np.uint8)
        lead[0, :, 3] = lead[1, :, 2] = digit
        lead[1, :, 3] = ord(".")
        _TABLES.update(
            pow10=np.zeros((_P_MAX - _P_MIN + 1, 4)),
            quads=quads.view(np.uint32).ravel(),
            zeros=sum(np.tile(np.arange(place) == 0, 10000 // place)
                      for place in (10, 100, 1000, 10000)).astype(np.uint8),
            lead=lead.view(np.uint32).ravel(),
        )
    return _TABLES


def _halves(a):
    """Dekker's split of ``a`` into a high and a low half, a = high + low."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _pow10(p: np.ndarray) -> np.ndarray:
    """(4, p.size): hi, lo and hi's halves of 10^p, hi + lo its correctly
    rounded double-double; each p's row of the table is built from Python
    ints once."""
    table = _tables()["pow10"]
    row = p - _P_MIN
    low = int(row.min())
    for q in (np.flatnonzero(table[low:int(row.max()) + 1, 0] == 0.0) + low).tolist():
        e = q + _P_MIN
        if e >= 0:
            exact = 10 ** e
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            scale = 10 ** -e
            hi = 1 / scale      # int / int rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        table[q] = (hi, lo, *_halves(hi))
    return table.view("V32").ravel().take(row).view(np.float64).reshape(-1, 4).T


def _scaled(a, p):
    """|x| 10^p as h + t, from the double-double 10^p (:func:`_pow10`):
    h = fl(a hi) and t = (a hi - h) + a lo, whose error is below 2^-104 of
    the product. numpy has no fused multiply-add, so a hi - h is Dekker's."""
    hi, lo, hi_high, hi_low = _pow10(p)
    h = a * hi
    a_high, a_low = _halves(a)
    exact_error = ((a_high * hi_high - h) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    return h, exact_error + a * lo


def _layout(out: np.ndarray, digits: np.ndarray, negative: int, k: int, count: int) -> None:
    """Write the %.17g text of rows of ``digits`` that share a sign, a
    decimal exponent k and a count of digits up to the last non-zero one
    into the rows of ``out``. A digit row is 20 bytes: for fixed notation
    (-4 <= k < 17) three pad bytes and the 17 digits, else two pad bytes,
    the first digit, "." and the other 16."""
    sign = b"-" if negative else b""
    if -4 <= k < 17:
        if k >= 0:
            parts = [sign, digits[:, 3:4 + k]]
            if count > k + 1:
                parts += [b".", digits[:, 4 + k:3 + count]]
        else:
            parts = [sign + b"0." + b"0" * (-k - 1), digits[:, 3:3 + count]]
    else:
        parts = [sign, digits[:, 2:count + 3 if count > 1 else 3], b"e%+03d" % k]
    width = 0
    for part in parts:
        if isinstance(part, bytes):
            part = np.frombuffer(part, np.uint8)
        out[:, width:width + part.shape[-1]] = part
        width += part.shape[-1]


def _chunk(x: np.ndarray, cells: np.ndarray) -> None:
    """Write the '%.17g' text of each value of ``x`` into the NUL-filled
    rows of ``cells`` (see :func:`format_cells`)."""
    tables = _tables()
    a = np.abs(x)
    fast = np.flatnonzero((a >= _LOW) & (a < _HIGH))
    if not fast.size:
        cells[:] = printf_cells(x)
        return
    a = a[fast]
    k = np.floor(np.log10(a)).astype(np.int64)
    h, t = _scaled(a, 16 - k)
    # log10 may be one off: move k so that 10^16 <= |x| 10^(16 - k) < 10^17,
    # deciding on the unrounded product
    down = (h < 1e16) | ((h == 1e16) & (t < 0.0))
    up = (h > 1e17) | ((h == 1e17) & (t >= 0.0))
    moved = np.flatnonzero(down | up)
    if moved.size:
        k[moved] += up[moved].astype(np.int64) - down[moved]
        h[moved], t[moved] = _scaled(a[moved], 16 - k[moved])
    # h >= 2^53 is an integer, so N = h + round(t); a fraction of t near one
    # half is a tie the product cannot settle
    whole = np.floor(t)
    fraction = t - whole
    n = h.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    sure = (np.abs(fraction - 0.5) >= _TIE_MARGIN) & (n >= 10 ** 16) & (n <= 10 ** 17)
    # a product that rounds up to 10^17 is 10^16 at the next exponent
    top = n == 10 ** 17
    n[top] = 10 ** 16
    k[top] += 1
    # the digit rows of _layout: a lead word, then four groups of four
    rest = n % 10 ** 16
    groups = [rest // 10 ** 12, rest // 10 ** 8 % 10 ** 4, rest // 10 ** 4 % 10 ** 4,
              rest % 10 ** 4]
    words = np.empty((n.size, 5), np.uint32)
    scientific = (k < -4) | (k >= 17)
    words[:, 0] = tables["lead"].take(10 * scientific + n // 10 ** 16, mode="clip")
    for i, group in enumerate(groups):
        words[:, i + 1] = tables["quads"].take(group)
    # the digits up to the last non-zero one; a last group of 0000 (count
    # 13 here) is rare
    count = 17 - tables["zeros"].take(groups[3])
    for i in np.flatnonzero(count == 13).tolist():
        count[i] = len(str(int(n[i])).rstrip("0"))
    # one layout per (sign, k, count) class, each a run of the sorted order,
    # behind the values the kernel cannot settle
    code = ((np.signbit(x[fast]).astype(np.int16) << 9 | (k + 256).astype(np.int16)) << 5
            | count.astype(np.int16))
    code[~sure] = -1
    order = np.argsort(code, kind="stable")
    code = code[order]
    settled = int(np.searchsorted(code, 0))
    order, code = order[settled:], code[settled:]
    digits = words.view("V20").ravel().take(order).view(np.uint8).reshape(-1, 20)
    laid = np.zeros((order.size, CELL), np.uint8)
    starts = (np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()
    for begin, end, c in zip([0, *starts], [*starts, order.size],
                             code[[0, *starts] if order.size else []].tolist()):
        _layout(laid[begin:end], digits[begin:end], c >> 14, (c >> 5 & 511) - 256, c & 31)
    rows = fast[order]
    cells.view(f"V{CELL}").ravel()[rows] = laid.view(f"V{CELL}").ravel()
    left = np.ones(x.size, bool)
    left[rows] = False
    left = np.flatnonzero(left)
    if left.size:
        cells[left] = printf_cells(x[left])


def printf_cells(x: np.ndarray) -> np.ndarray:
    """The kernel's fallback: ``'%.17g' % v`` of each value, by one C-level
    format, as NUL-padded rows."""
    parts = (("%.17g," * x.size) % tuple(x.tolist())).encode().split(b",")[:-1]
    return np.array(parts, f"S{CELL}").view(np.uint8).reshape(x.size, CELL)


def format_cells(x: np.ndarray) -> np.ndarray:
    """The ``'%.17g' % v`` text of every value of a finite 1-D array, exact
    and with numpy operations only, as a NUL-padded bytes array of dtype
    ``S{CELL}``.

    A value with 1e-250 <= |v| < 1e250 is written from N = round(|v| 10^(16 - k)),
    the 17-digit integer of its decimal exponent k: k comes from log10,
    corrected by one where the product leaves [10^16, 10^17) (and a product
    that rounds to 10^17 is 10^16 at k + 1); the product is a double-double
    10^(16 - k) times |v| (:func:`_scaled`), in error by less than 2^-47;
    N's digits come from a table of four-digit groups, and each
    (sign, k, digit count) class is laid out as %g does (:func:`_layout`).
    Zeros, values outside that range and values whose scaled fraction lies
    within 2^-36 of one half, where the product cannot settle the rounding,
    are formatted by ``%`` instead; so every text is %.17g's own.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.size, f"S{CELL}")
    rows = out.view(np.uint8).reshape(x.size, CELL)
    for start in range(0, x.size, CHUNK):
        _chunk(x[start:start + CHUNK], rows[start:start + CHUNK])
    return out


def text(columns: list[np.ndarray], picks, total: int) -> str:
    """``total`` items of text, item i the concatenation of ``column[j]``
    over the columns, j = ``picks(i)`` for that column (``picks`` maps an
    array of positions to one array of indices per column). The columns
    are NUL-padded bytes arrays: each item goes into one byte row and one
    ``bytes.translate`` drops every NUL. CHUNK items at a time, each piece
    decoded on its own, so that the text is copied whole only once."""
    width = sum(column.itemsize for column in columns)
    pieces = []
    for start in range(0, total, CHUNK):
        at = np.arange(start, min(start + CHUNK, total))
        line = np.empty((at.size, width), np.uint8)
        offset = 0
        for column, pick in zip(columns, picks(at)):
            item = f"V{column.itemsize}"
            line[:, offset:offset + column.itemsize].view(item)[:, 0] = (
                column.view(item).take(pick))
            offset += column.itemsize
        pieces.append(line.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


# What comes before a cell in :func:`joined`: ", " inside a row, "], ["
# where a row starts, nothing before the first.
_SEPARATORS = np.array([b", ", b"], [", b""])


def joined(cells: np.ndarray, n: int, index) -> str:
    """JSON text of an n x n matrix from cells of :func:`format_cells`,
    "[[c, ...], [c, ...]]", each cell behind its separator (:func:`text`).
    Position i in row-major order shows cell ``index(i)`` for an array of
    positions."""
    if n == 0:
        return "[]"

    def picks(at):
        kind = np.zeros(at.size, np.intp)
        kind[-at[0] % n::n] = 1
        if at[0] == 0:
            kind[0] = 2
        return kind, index(at)

    return "[[" + text([_SEPARATORS, cells], picks, n * n) + "]]"
