"""CSV rows with every value exactly as Python's "%.17g" writes it.

runner.write_csv formats its rows through Rows, a block of rows at a time
in numpy. A value 10^X <= |x| < 10^(X+1) in the fast range 1e-40 <= |x| <
1e40 has the 17 digits N = round(|x| 10^(16 - X)), computed as a Dekker
two-product (Numer. Math. 18, 224 (1971)) of |x| with 10^(16 - X) held as
two doubles. Its error is below 1e-13, so N is exact wherever the scaled
fraction is not within TIE_GAP of one half. Those values and the ones
outside the range go through "%.17g" itself, one at a time; zeros, nan and
infinities have fields of their own. Nothing is approximated.
"""

import math

import numpy as np

# A block of 256 rows of 8 values keeps every buffer and temporary at 64 KiB
# or less, below malloc's 128 KiB mmap threshold, so that blocks reuse heap
# pages instead of faulting in fresh ones: 4000 rows fault about 80 pages,
# and 1700 in blocks of 512.
BLOCK = 256
TIE_GAP = 1e-6
_X_MIN, _X_MAX = -40, 40        # the fast range is 10^_X_MIN <= |x| < 10^_X_MAX
# Each value has a slot of _SLOT bytes; its field is laid out there and the
# zero bytes are dropped. The slot is the minimum of a value's own bytes
# and its layout row, twice: once as written (sign, the 17 digits from
# byte _DIGITS, separator) and once shifted right by one byte. The first
# gives the digits before the point, the second those after it, with the
# point itself taken by a "." in the layout, which is below every digit.
# The lead ("0.000", "nan", ...) and the exponent are layout text. A
# negative value writes 1 as its sign, which becomes "-" as the zero bytes
# are dropped.
_SLOT, _SIGN, _LEAD, _DIGITS, _EXP, _SEP = 32, 0, 2, 7, 25, 29
_MINUS = bytes.maketrans(b"\x01", b"-")


def _ceil_pow10(e):
    """The smallest double >= 10^e."""
    d = float(10 ** e) if e >= 0 else 1 / 10 ** -e
    num, den = d.as_integer_ratio()
    above = num * 10 ** max(-e, 0) >= den * 10 ** max(e, 0)
    return d if above else math.nextafter(d, math.inf)


def _split(x):
    """Veltkamp's split of x into a 26-bit head and the rest."""
    c = 134217729.0 * x
    head = c - (c - x)
    return head, x - head


def _pow10_dd(p):
    """10^p as (hi, head of hi, tail of hi, lo): hi is the correctly
    rounded int/int quotient and lo the rounded residual 10^p - hi."""
    hi = float(10 ** p) if p >= 0 else 1 / 10 ** -p
    num, den = hi.as_integer_ratio()
    lo = (10 ** max(p, 0) * den - num * 10 ** max(-p, 0)) / (den * 10 ** max(-p, 0))
    return (hi, *_split(hi), lo)


def _floor_log10_pow2(m):
    """floor(log10 2^m), from the digits of 2^|m| (never a power of ten)."""
    return len(str(2 ** m)) - 1 if m >= 0 else -len(str(2 ** -m))


_BOUNDS = np.array([_ceil_pow10(e) for e in range(_X_MIN, _X_MAX + 1)])
# a in [2^(e - 1), 2^e) has X = _X_BELOW[e - _E_MIN] + _X_MIN or one more
_E_MIN = math.frexp(_BOUNDS[0])[1]
_X_BELOW = np.array([_floor_log10_pow2(e - 1) - _X_MIN
                     for e in range(_E_MIN, math.frexp(_BOUNDS[-1])[1] + 1)])
_SCALE = np.array([_pow10_dd(16 - x) for x in range(_X_MIN, _X_MAX)]).T.copy()
# Eight digits x < 10^8 become eight byte lanes of a little-endian word,
# the first digit in the lowest byte, in three splits of every lane into a
# quotient lane and a remainder lane: by 10^4 into two 32-bit lanes, by 100
# into 16-bit lanes and by 10 into bytes. Each quotient is (x * mul) >>
# shift, which equals x // divisor below the lane's bound.
_WORD = np.dtype("<u8")
_ASCII_ZEROS = _WORD.type(0x3030303030303030)
_SPLITS = [tuple(_WORD.type(c) for c in split) for split in (
    # divisor, lane width, mul, shift, quotient lanes
    (10 ** 4, 32, 109951163, 40, 0x00000000FFFFFFFF),      # x < 10^8
    (100, 16, 5243, 19, 0x0000007F0000007F),               # x < 10^4
    (10, 8, 103, 10, 0x000F000F000F000F))]                 # x < 100
# layout keys: (X - _X_MIN) * 17 + L - 1 for L digits left once trailing
# zeros go (X reaches _X_MAX when rounding carries), then four more
_NAN, _INF, _ZERO, _SLOW = range((_X_MAX - _X_MIN + 1) * 17,
                                 (_X_MAX - _X_MIN + 1) * 17 + 4)
# the layout rows of every key, filled as keys first appear: 0xff where
# the written bytes show, and the text with 0xff where the shifted bytes
# show (zeros, and so untouched pages, for keys no run has met)
_laid_out = np.zeros(_SLOW + 1, bool)
_shown = np.zeros((_SLOW + 1, _SLOT), np.uint8)
_text = np.zeros((_SLOW + 1, _SLOT), np.uint8)


def _lay_out(key):
    """Fill the layout rows of one key, as %g lays out its digits."""
    own, text = _shown[key], _text[key]
    own[_SEP] = 0xFF
    if key >= _NAN:
        word = {_NAN: b"nan", _INF: b"inf", _ZERO: b"0", _SLOW: b"%b"}[key]
        text[_LEAD:_LEAD + len(word)] = list(word)
        if key in (_INF, _ZERO):
            own[_SIGN] = 0xFF
        return
    x, length = key // 17 + _X_MIN, key % 17 + 1
    own[_SIGN] = 0xFF
    if -4 <= x < 0:
        text[_LEAD:_LEAD + 1 - x] = list(b"0." + b"0" * (-x - 1))
        own[_DIGITS:_DIGITS + length] = 0xFF
        return
    if 0 <= x < 17:
        point = x + 1
    else:
        point = 1
        text[_EXP:_EXP + 4] = list(b"e%+03d" % x)
    own[_DIGITS:_DIGITS + point] = 0xFF
    if length > point:
        text[_DIGITS + point] = ord(".")
        text[_DIGITS + 1 + point:_DIGITS + 1 + length] = 0xFF


class Rows:
    """Formats blocks of up to `rows` rows of `width` columns as CSV text:
    rows(columns, start, stop) returns rows start to stop of the column
    arrays as bytes, each value as "%.17g" writes it, "," between values
    and a newline after each row."""

    def __init__(self, rows, width):
        m = rows * width
        self.values = np.empty((rows, width))
        self.words = np.empty((m, 2), _WORD)
        # eight bytes ahead of the slots, so that the digit words are
        # aligned and the shifted view starts in the buffer; the bytes no
        # value writes are 0xff, so that the layout's text shows there
        self.bytes = np.full(m * _SLOT + 8, 0xFF, np.uint8)
        self.bytes[8:].reshape(rows, width, _SLOT)[:, :, _SEP] = np.frombuffer(
            b"," * (width - 1) + b"\n", np.uint8)
        self.shown = np.empty((m, _SLOT), np.uint8)
        self.text = np.empty((m, _SLOT), np.uint8)

    def __call__(self, columns, start, stop):
        values = self.values[:stop - start]
        for j, col in enumerate(columns):
            values[:, j] = col[start:stop]
        v = values.ravel()
        m = v.size
        a = np.abs(v)
        fast = (a >= _BOUNDS[0]) & (a < _BOUNDS[-1])
        a[~fast] = 1.0  # a stand-in: these values get keys of their own
        # k = X - _X_MIN for X = floor(log10 a), exactly: the binary
        # exponent leaves two values of X
        k = _X_BELOW.take(np.frexp(a)[1].astype(np.intp) - _E_MIN)
        k = np.where(a >= _BOUNDS.take(k + 1), k + 1, k)
        hi, hi_head, hi_tail, lo = (row.take(k) for row in _SCALE)
        prod = a * hi
        head, tail = _split(a)
        err = (((head * hi_head - prod) + head * hi_tail) + tail * hi_head) + tail * hi_tail
        r = err + a * lo
        whole = np.floor(r)
        r -= whole
        slow = ~fast | (np.abs(r - 0.5) < TIE_GAP)
        n = prod.astype(np.int64)
        n += whole.astype(np.int64)
        n = np.where(r > 0.5, n + 1, n)
        carry = n == 10 ** 17
        if carry.any():
            n[carry] = 10 ** 16
            k[carry] += 1

        # the first digit, then digits 1-16 as two words of eight
        top = n // 10 ** 8
        first = top // 10 ** 8
        words = self.words[:m]
        np.subtract(top, first * 10 ** 8, out=words[:, 0], casting="unsafe")
        np.subtract(n, top * 10 ** 8, out=words[:, 1], casting="unsafe")
        for div, width, mul, shift, lanes in _SPLITS:
            high = (words * mul) >> shift
            high &= lanes
            words -= high * div
            words <<= width
            words += high
        # L, the digits left once trailing zeros go, from the bit length of
        # each word (exact in a double: no run of ones in it passes 4 bits)
        sig = (np.frexp(words.astype(np.float64))[1].astype(np.intp) + 7) // 8
        length = np.where(sig[:, 1] > 0, sig[:, 1] + 9, sig[:, 0] + 1)
        words += _ASCII_ZEROS
        own = self.bytes[8:8 + m * _SLOT].reshape(m, _SLOT)
        np.less(v.view(np.int64), 0, out=own[:, _SIGN].view(bool))
        own[:, _DIGITS] = first + 48
        own.view(_WORD)[:, 1:3] = words

        keys = k * 17 + (length - 1)
        any_slow = slow.any()
        if any_slow:
            keys[slow] = _SLOW
            keys[np.isnan(v)] = _NAN
            keys[np.isinf(v)] = _INF
            keys[v == 0] = _ZERO
        new = ~_laid_out.take(keys)
        if new.any():
            for key in set(keys[new].tolist()):
                _lay_out(key)
                _laid_out[key] = True
        shown = np.take(_shown, keys, axis=0, out=self.shown[:m], mode="clip")
        text = np.take(_text, keys, axis=0, out=self.text[:m], mode="clip")
        np.minimum(shown, own, out=shown)
        np.minimum(text, self.bytes[7:7 + m * _SLOT].reshape(m, _SLOT), out=text)
        np.maximum(shown, text, out=shown)
        text = shown.tobytes().translate(_MINUS, b"\0")
        if any_slow:
            odd = v[keys == _SLOW]
            if odd.size:
                text %= tuple(b"%.17g" % x for x in odd.tolist())
        return text
