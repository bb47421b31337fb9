"""CSV bytes of a block of cells, each written as C's ``%.17g`` writes it.

``csv_block(block)`` returns the rows of a 2-D block joined by ``,`` and
ended by ``\\n``, every cell exactly as ``b"%.17g" % cell`` writes it.
CPython's ``%.17g`` is correctly rounded but slow: seventeen digits always
take its bignum path.  For a float64 block the digits are computed in bulk:

- with k a guess of floor(log10|x|), V = |x| * 10**(16 - k) is formed as an
  unevaluated sum p + q of doubles from a Dekker product (exact without an
  FMA) and a (hi, lo) table of 10**s built with exact integer arithmetic, so
  |p + q - V| < 2**-47 for V < 2**57;
- N = round(V) is the 17-digit significand, and it is exact whenever the
  fraction of p + q is further than 2**-40 from 1/2;
- the digits of N are written into a fixed 32-byte character layout per
  cell, one byte per digit, and a mask gathered by (exponent class,
  trailing zeros, sign) keeps the characters ``%g`` prints: fixed notation
  for -4 <= X < 17, ``d.ddde±XX`` otherwise, trailing zeros and a bare
  point stripped;
- the layout has a point only after digit 0, so fixed notation with
  1 <= X <= 15, the one form whose point falls between two later digits,
  has it inserted after digit X by shifting the digits behind it one byte.

A cell is certified only when N is exact and 10**16 < N < 10**17, which
also proves the exponent guess right.  Zeros are certified as ``0``/``-0``.
Every other cell (nan, ±inf, subnormals, magnitudes outside [1e-280,
1e280), cells whose 17 digits are a power of ten, and decimal ties) is
written by ``%`` on its own, as is every cell of a block whose dtype is not
float64.

The report writer passes blocks of 4096 cells (``scenario._BLOCK_CELLS``),
so each working array of a block (the cells, their mask rows, the bytes)
stays near 128 KiB whatever the size of the table.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Magnitudes whose Dekker product with 10**(16 - k) neither overflows nor
# underflows.  Outside them a cell goes to ``%``.
_MIN_ABS, _MAX_ABS = 1e-280, 1e280
# Exponents s = 16 - k the table covers: log10 puts k in [-281, 280], and
# one correction moves it by one.
_S_MIN, _S_MAX = 16 - 282, 16 + 282
_K = 1023  # 2**_K / 10 still converts to a float
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: halves of 26 bits each
# |frac(V) - 1/2| must exceed this for round(p + q) to be round(V).
_TIE_MARGIN = 2.0**-40
_E16, _E17 = 10**16, 10**17

# One cell's characters, four 8-byte words that a mask row compacts:
#   word 0:     "-0.000" d0 "."   sign, the prefix of -4 <= X < 0, digit 0
#                                 and the point after it
#   words 1-2:  digits 1-16, one byte each
#   word 3:     "e+XXX," and two bytes never kept
# Fixed notation with 1 <= X <= 15 puts its point after digit X, so those
# cells have it inserted there: digits X+1..16 move one byte on, digit 16
# into the first byte of word 3, whose "e" fixed notation never keeps.
_WORDS = 4
_WIDTH = 8 * _WORDS
_DIGIT0 = 6  # digit 0; digit j >= 1 sits at byte 7 + j, 8 + j past an inserted point
_POINT = 7  # the point after digit 0
_EXP = 24  # "e", exponent sign, three exponent digits
_SEP = 29  # "," or "\n"
_X_MAX = 400  # tables by exponent cover -400 <= X <= 400
# Mask rows are keyed by (class * 17 + trailing zeros) * 2 + sign, where
# classes 0..20 are fixed notation with X = class - 4, then the exponent
# forms with two and with three digits.  The last key keeps only the
# separator, before which an uncertified cell is spliced.
_CLASSES = 23
_FALLBACK = _CLASSES * 17 * 2


def _split(v):
    """Veltkamp's split of v into two halves with 26 significant bits each."""
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


@functools.cache
def _tables():
    """Read-only lookup tables, built on the first call, not at import."""
    # Exact (hi, lo) pairs of 10**s, each from the last by one step of
    # integer arithmetic.  For s < 0, q = floor(2**K / 10**-s) and the
    # remainder makes 2**K * 10**s = q + f with 0 < f < 1; q and q - H
    # (H = hi * 2**K) keep over 80 bits, so their odd neighbours round to
    # 53 bits as q + f and q - H + f do.
    ldexp = math.ldexp
    his, los = [], []
    q = (1 << _K) // 10
    for _ in range(-_S_MIN):
        hi = ldexp(float(q | 1), -_K)
        his.append(hi)
        los.append(ldexp(float((q - int(ldexp(hi, _K))) | 1), -_K))
        q //= 10
    his.reverse()
    los.reverse()
    n = 1
    for _ in range(_S_MAX + 1):
        hi = float(n)
        his.append(hi)
        los.append(float(n - int(hi)))
        n *= 10
    hi = np.array(his)
    powers = (hi, *_split(hi), np.array(los))

    # The four digits of every four-digit chunk c, most significant first.
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    heads = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype=np.uint64)
    chunks = (digits + ord("0")).reshape(-1).view(np.uint32)
    # "e±XXX," and two NULs for every exponent X.
    xs = np.arange(-_X_MAX, _X_MAX + 1)
    chars = np.zeros((len(xs), 8), dtype=np.uint8)
    chars[:, :2] = np.frombuffer(b"e+", dtype=np.uint8)
    chars[xs < 0, 1] = ord("-")
    chars[:, 2:5] = digits[np.abs(xs), 1:] + ord("0")
    chars[:, 5] = ord(",")
    exponents = chars.reshape(-1).view(np.uint64)
    classes = np.where((-4 <= xs) & (xs <= 16), xs + 4, 21 + (np.abs(xs) >= 100))
    inserts = (1 <= xs) & (xs <= 15)
    # Trailing zeros of each chunk; 4 for chunk 0.
    tz = np.zeros(10**4, dtype=np.int64)
    for step in (10, 100, 1000, 10**4):
        tz[::step] += 1
    # For a point inserted after digit X (row X), words 1-2 as two masks:
    # the digits before the point, and the point itself.
    byte = np.arange(16)
    before = (byte < byte[:, None]) * np.uint8(0xFF)
    points = (byte == byte[:, None]) * np.uint8(ord("."))
    before, points = before.view(np.uint64), points.view(np.uint64)

    # The mask row of every (class, trailing zeros) pair, by byte position.
    x = np.arange(_CLASSES)[:, None, None] - 4
    zeros = np.arange(17)[None, :, None]
    at = np.arange(_WIDTH)
    n_int = np.where(x > 16, 1, np.where(x < 0, 0, x + 1))  # digits before the point
    n_digits = np.maximum(17 - zeros, n_int)
    inserted = (1 <= x) & (x <= 15)
    point = np.where(inserted, 8 + x, _POINT)
    j = at - _DIGIT0 - (at > _POINT) - (inserted & (at > point))  # the digit at a byte
    rows = (at >= _DIGIT0) & (at != _POINT) & (at != point) & (j < n_digits)
    rows |= (0 < n_int) & (n_int < n_digits) & (at == point)
    rows |= (x < 0) & (1 <= at) & (at < 2 - x)  # "0." and -X - 1 zeros
    # Classes 21 and 22 (x = 17, 18): "e", its sign and two or three digits.
    rows |= (x > 16) & (_EXP <= at) & (at < _SEP) & ((at != _EXP + 2) | (x == 18))
    rows |= at == _SEP
    layout = np.empty((_FALLBACK + 1, _WIDTH), dtype=bool)
    signed = layout[:-1].reshape(_CLASSES, 17, 2, _WIDTH)
    signed[:, :, 0] = rows
    signed[:, :, 1] = rows | (at == 0)
    layout[-1] = at == _SEP
    lengths = layout.sum(axis=1)
    # As words whose kept bytes are 0xff: a cell ANDed with its row keeps
    # the characters %g prints and turns the rest into NULs.
    layout = (layout * np.uint8(0xFF)).view(np.uint64)
    tables = (
        *powers, heads, chunks, exponents, classes * 34, inserts, tz * 2,
        before, points, layout, lengths,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a, k, powers):
    """V = a * 10**(16 - k) as the sum p + q, p integral for V >= 2**53."""
    at = 16 - _S_MIN - k
    hi, bh, bl, lo = (table.take(at) for table in powers)
    p = a * hi
    ah, al = _split(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e + a * lo


def _insert_points(m, rows, xs, before, points):
    """Insert the point after digit xs[i] of cell rows[i] of m: the digits
    after it move one byte on, and digit 16 into the first byte of word 3."""
    digits = m[rows, 1:3]
    ahead = before.take(xs, axis=0)
    after = digits & ~ahead
    digits &= ahead
    digits |= points.take(xs, axis=0)
    digits |= after << np.uint64(8)
    digits[:, 1] |= after[:, 0] >> np.uint64(56)
    m[rows, 1:3] = digits
    tails = m[rows, 3] & ~np.uint64(0xFF)
    m[rows, 3] = tails | after[:, 1] >> np.uint64(56)


def _per_cell(block) -> bytes:
    """The CSV lines of a block whose cells each go through ``%``."""
    cells = [b"%.17g" % v for v in block.ravel().tolist()]
    n_cols = block.shape[1]
    rows = [b",".join(cells[i:i + n_cols]) for i in range(0, len(cells), n_cols)]
    return b"".join(row + b"\n" for row in rows)


def csv_block(block) -> bytes:
    """The CSV lines of a 2-D block, cells as ``b"%.17g" % cell`` writes them."""
    if block.dtype != np.float64:
        return _per_cell(block)
    (*powers, heads, chunks, exponents, keys, inserts, zero_keys,
     before, points, layout, lengths) = _tables()
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= _MIN_ABS) & (a < _MAX_ABS)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, k, powers)
    # The exponent guess is one off near powers of ten: redo those cells.
    redo = ((p < 1e16) | (p >= 1e17)).nonzero()[0]
    if redo.size:
        k[redo] += np.where(p[redo] < 1e16, -1, 1)
        p[redo], q[redo] = _scaled(a[redo], k[redo], powers)
    r = np.floor(q)
    frac = q - r
    n = p.astype(np.int64) + r.astype(np.int64) + (frac > 0.5)
    good = ok & (np.abs(frac - 0.5) > _TIE_MARGIN) & (n > _E16) & (n < _E17)
    good |= zero
    at_x = k + _X_MAX  # row of X in the tables by exponent; X = 0 for zeros
    n[zero] = 0

    # The 17 digits as a digit, four chunks of four, and their trailing zeros.
    parts = []
    for scale in (_E16, 10**12, 10**8, 10**4):
        parts.append(n // scale)
        n = n - parts[-1] * scale
    d0, *chunk_values = parts + [n]
    m = np.empty((x.size, _WORDS), dtype=np.uint64)
    m[:, 0] = heads.take(d0)
    digit_chunks = m.view(np.uint32)[:, 2:6]
    for j, c in enumerate(chunk_values):
        digit_chunks[:, j] = chunks.take(c)
    # Trailing zeros reach chunks 1-3 only where the last chunk is 0.
    last = chunk_values[-1]
    zeros = zero_keys.take(last)
    runs = (last == 0).nonzero()[0]
    if runs.size:
        more = zero_keys.take(chunk_values[0][runs])
        for c in chunk_values[1:3]:
            c = c[runs]
            more = np.where(c == 0, more + 8, zero_keys.take(c))
        zeros[runs] += more
    m[:, 3] = exponents.take(at_x)
    m.view(np.uint8).reshape(block.shape + (_WIDTH,))[:, -1, _SEP] = ord("\n")
    split = inserts.take(at_x).nonzero()[0]
    if split.size:
        _insert_points(m, split, at_x[split] - _X_MAX, before, points)

    key = keys.take(at_x) + zeros + np.signbit(x)
    bad = (~good).nonzero()[0]
    key[bad] = _FALLBACK
    m &= layout.take(key, axis=0)
    out = m.tobytes().translate(None, b"\0")
    if not bad.size:
        return out
    # Splice in the uncertified cells, each written by % just before its
    # separator, the only character its mask row keeps.
    ends = np.cumsum(lengths.take(key))[bad] - 1
    pieces, at = [], 0
    for i, end in zip(bad.tolist(), ends.tolist()):
        pieces += [out[at:end], b"%.17g" % x[i]]
        at = end
    pieces.append(out[at:])
    return b"".join(pieces)
