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
- the digits of N are written into a fixed character layout per cell, and a
  mask gathered by (exponent class, trailing zeros, sign) keeps the
  characters ``%g`` prints: fixed notation for -4 <= X < 17, ``d.ddde±XX``
  otherwise, trailing zeros and a bare point stripped.

A cell is certified only when N is exact and 10**16 < N <= 10**17, which
also proves the exponent guess right (N = 10**17 is 10**16 at exponent
k + 1).  Zeros are certified as ``0``/``-0``.  Every other cell (nan, ±inf,
subnormals, magnitudes outside [1e-280, 1e280), exact powers of ten and
decimal ties) is written by ``%`` on its own, as is every cell of a block
whose dtype is not float64.
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

# One cell's characters, six 8-byte words that a mask row compacts:
#   word 0:     "-0.000" d0 "."   sign, the prefix of -4 <= X < 0, digit 0
#   words 1-4:  "d.d.d.d."        digits 1-16, each followed by a point slot
#   word 5:     "e+XXX," and two bytes never kept
_WORDS = 6
_WIDTH = 8 * _WORDS
_DIGIT0 = 6  # digit j sits at byte 6 + 2j, the point after it at 7 + 2j
_EXP = 40  # "e", exponent sign, three exponent digits
_SEP = 45  # "," or "\n"
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
    # "d.d.d.d." of every chunk c: its digits, each before a point.
    chars = np.full((10**4, 8), ord("."), dtype=np.uint8)
    chars[:, 0::2] = digits + ord("0")
    chunks = chars.reshape(-1).view(np.uint64)
    # "e±XXX," and two NULs for every exponent X.
    xs = np.arange(-_X_MAX, _X_MAX + 1)
    chars = np.zeros((len(xs), 8), dtype=np.uint8)
    chars[:, :2] = np.frombuffer(b"e+", dtype=np.uint8)
    chars[xs < 0, 1] = ord("-")
    chars[:, 2:5] = digits[np.abs(xs), 1:] + ord("0")
    chars[:, 5] = ord(",")
    exponents = chars.reshape(-1).view(np.uint64)
    classes = np.where((-4 <= xs) & (xs <= 16), xs + 4, 21 + (np.abs(xs) >= 100))
    # Trailing zeros of each chunk; 4 for chunk 0.
    tz = np.zeros(10**4, dtype=np.int64)
    for step in (10, 100, 1000, 10**4):
        tz[::step] += 1

    # The mask row of every (class, trailing zeros) pair, by byte position.
    x = np.arange(_CLASSES)[:, None, None] - 4
    zeros = np.arange(17)[None, :, None]
    at = np.arange(_WIDTH)
    n_int = np.where(x > 16, 1, np.where(x < 0, 0, x + 1))  # digits before the point
    j = at - _DIGIT0
    rows = (j >= 0) & (j % 2 == 0) & (j < 2 * np.maximum(17 - zeros, n_int))
    rows |= (0 < n_int) & (n_int < 17 - zeros) & (j == 2 * n_int - 1)  # the point
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
    tables = (*powers, heads, chunks, exponents, classes * 34, tz * 2, layout, lengths)
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
    *powers, heads, chunks, exponents, keys, zero_keys, layout, lengths = _tables()
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= _MIN_ABS) & (a < _MAX_ABS)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, k, powers)
    # The exponent guess is one off near powers of ten: redo those cells.
    redo = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if redo.size:
        k[redo] += np.where(p[redo] < 1e16, -1, 1)
        p[redo], q[redo] = _scaled(a[redo], k[redo], powers)
    r = np.floor(q)
    frac = q - r
    n = p.astype(np.int64) + r.astype(np.int64) + (frac > 0.5)
    good = ok & (np.abs(frac - 0.5) > _TIE_MARGIN) & (n > _E16) & (n <= _E17)
    good |= zero
    top = n == _E17
    n[top] = _E16
    at_x = k + top + _X_MAX  # row of X in the tables by exponent
    n[zero] = 0
    at_x[zero] = _X_MAX

    # The 17 digits as a digit, four chunks of four, and their trailing zeros.
    parts = []
    for scale in (_E16, 10**12, 10**8, 10**4):
        parts.append(n // scale)
        n = n - parts[-1] * scale
    d0, *chunk_values = parts + [n]
    m = np.empty((x.size, _WORDS), dtype=np.uint64)
    m[:, 0] = heads.take(d0)
    zeros = zero_keys.take(chunk_values[0])
    for j, c in enumerate(chunk_values, start=1):
        m[:, j] = chunks.take(c)
        if j > 1:
            zeros = np.where(c == 0, zeros + 8, zero_keys.take(c))
    m[:, 5] = exponents.take(at_x)
    m.view(np.uint8).reshape(block.shape + (_WIDTH,))[:, -1, _SEP] = ord("\n")

    key = keys.take(at_x) + zeros + np.signbit(x)
    bad = np.flatnonzero(~good)
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
