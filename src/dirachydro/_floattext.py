"""CSV rows of float64 values, each as ``"%.17g"`` writes it, rendered by NumPy a block at a time.

``rows_bytes(block)`` takes a (rows, columns) float64 block and returns its
CSV bytes: the values of a row joined by ``,``, every row ended by CRLF,
and each value bitwise ``format_float(value)``, the 17 significant digits
in ``%g`` layout (``nan``, ``inf``, ``-inf``, ``0`` and ``-0`` included).

The digits.  A finite nonzero ``|x| = m * 2**e`` with m in [0.5, 1) lies in
the decade k with ``10**k <= |x| < 10**(k + 1)``.  For a given e, k is one
of two values, told apart exactly by the smallest double at or above the
upper one's power of ten.  The 17 digits are ``D = round(m * C)`` with
``C = 2**e * 10**(16 - k)``, which lies in [1e16, 2e17].  C is held as a
double-double whose parts are correctly rounded from Python ints, and
``m * C`` is formed as ``hi + lo`` with Dekker's exact product of two
doubles (Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 1971).  As ``hi >= 1e16 > 2**53``, hi is an
integer and only the fraction of lo decides the rounding.  ``hi + lo`` is
within 1e-13 of ``m * C``, so a fraction within ``_TIE`` of one half is too
close to call: those values' digits are read from ``format_float``, the
scalar oracle.  A value whose digits round up to ``10**17`` moves to the
next decade.  Scale constants exact to the last bit are the approach of
Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019.

The text.  Each value's 17 digits, the sign and digits of its decimal
exponent and a few fixed characters are written into a 32-byte source row.
A layout, chosen by sign, form (fixed point for decimal exponents -4 to
16, scientific with a 2- or 3-digit exponent, zero, nan, inf),
significant-digit count and whether the value ends its row, lists the
source bytes of the value's text and separator.  One gather through the
layouts, compacted by a mask of the same key, gives the bytes.

The tables are filled on first use, the scales only for the binary
exponents a block holds, so that importing this module costs nothing; the
CSV writer imports it with its first table.
"""

from __future__ import annotations

import math

import numpy as np

from .io import format_float

# |fraction - 1/2| below this is left to format_float, far above the error bound
_TIE = 1e-6
# Dekker's split of a double into two 26-bit halves
_SPLIT = 134217729.0
# the binary exponents np.frexp gives the finite nonzero doubles
_E_MIN, _E_MAX = -1073, 1024
# values rendered per gather: a block's transient arrays stay in the cache, and
# its source offsets fit in uint16
BLOCK_VALUES = 1536

# a value's source row: 17 digits at 3..19, the exponent's sign and 3 digits
# at 20..23, and the letters of nan and inf at 28..31
_SOURCE = np.frombuffer(b"-0." + b"0" * 17 + b"+000e,\r\nnaif", dtype=np.uint8)
_MINUS, _ZERO, _POINT, _DIGITS, _EXPONENT, _E, _COMMA, _CR, _LF = 0, 1, 2, 3, 20, 24, 25, 26, 27
_NAN, _INF = (28, 29, 28), (30, 28, 31)
# forms: 0..20 fixed point for decimal exponents -4..16, then these
_SCI2, _SCI3, _ZERO_FORM, _NAN_FORM, _INF_FORM = 21, 22, 23, 24, 25
_FORMS = 26
# decimal exponents of the finite doubles, their carries included, offset to index a table
_X_MIN, _X_MAX = -324, 309
# the longest text and separator: "-1.2345678901234567e-308\r\n"
_WIDTH = 26
# key = ((last * 2 + negative) * _FORMS + form) * 17 + significant digits - 1
_KEYS = 4 * _FORMS * 17

# the tables, once built: the text tables, and the scales filled a binary exponent at a time
_tables = {}


def _ratio(e, k):
    """``2**e * 10**k`` as (numerator, denominator) Python ints."""
    return (1 << max(e, 0)) * 10 ** max(k, 0), (1 << max(-e, 0)) * 10 ** max(-k, 0)


def _fill(rows):
    """Fill the scale rows given, each from exact integer arithmetic.

    Row ``e - _E_MIN`` holds, for the binary exponent e: the lower k0 of the
    two decades of [2**(e - 1), 2**e), the smallest double at or above
    10**(k0 + 1), and for the decades k0 and k0 + 1, at ``2 * row`` and
    ``2 * row + 1``, C's high part, its two Dekker halves and C's low part.
    """
    filled, low_decade, threshold_of, scale = (
        _tables[name] for name in ("filled", "low_decade", "threshold", "scale"))
    for row in rows.tolist():
        e = row + _E_MIN
        # the largest k0 with 10**k0 <= 2**(e - 1)
        k0 = math.floor((e - 1) * math.log10(2.0))
        while True:
            num, den = _ratio(e - 1, -k0)
            if num < den:
                k0 -= 1
            elif num >= 10 * den:
                k0 += 1
            else:
                break
        num, den = _ratio(0, k0 + 1)
        threshold = num / den
        p, q = threshold.as_integer_ratio()
        if p * den < num * q:
            threshold = math.nextafter(threshold, math.inf)
        low_decade[row], threshold_of[row] = k0, threshold
        for j in (0, 1):
            num, den = _ratio(e, 16 - k0 - j)
            hi = num / den
            p, q = hi.as_integer_ratio()
            c = _SPLIT * hi
            half = c - (c - hi)
            scale[2 * row + j] = hi, half, hi - half, (num * q - p * den) / (den * q)
        filled[row] = True


def _body(form, significant):
    """The source offsets of an unsigned text of one form and significant-digit count."""
    digits = bytes(range(_DIGITS, _DIGITS + 17))
    if form < _SCI2:
        x = form - 4
        if x < 0:
            return bytes([_ZERO, _POINT] + [_ZERO] * (-x - 1)) + digits[:significant]
        # an integer part longer than the significant digits keeps its zeros
        fraction = digits[x + 1:significant]
        return digits[:x + 1] + (bytes([_POINT]) + fraction if fraction else b"")
    if form <= _SCI3:
        fraction = digits[1:significant]
        exponent = range(_EXPONENT + (2 if form == _SCI2 else 1), _E)
        return (digits[:1] + (bytes([_POINT]) + fraction if fraction else b"")
                + bytes([_E, _EXPONENT, *exponent]))
    return bytes({_ZERO_FORM: [_ZERO], _NAN_FORM: _NAN, _INF_FORM: _INF}[form])


def _build_tables():
    """Layouts and masks of every key, digit and exponent words, forms by exponent,
    and the scale rows, all empty."""
    bodies = [(form, _body(form, significant))
              for form in range(_FORMS) for significant in range(1, 18)]
    texts = [bytes([_MINUS]) * (negative and form != _NAN_FORM) + body + separator
             for separator in (bytes([_COMMA]), bytes([_CR, _LF])) for negative in (0, 1)
             for form, body in bodies]
    layouts = np.frombuffer(b"".join(text.ljust(_WIDTH, b"\0") for text in texts),
                            dtype=np.uint8).reshape(_KEYS, _WIDTH).astype(np.uint16)
    keep = np.arange(_WIDTH) < np.array([len(text) for text in texts])[:, None]
    n = np.arange(10000)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    four = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
    # trailing zeros of a 4-digit group, 4 for 0000
    zeros = np.where(n % 10, 0, np.where(n % 100, 1, np.where(n % 1000, 2, np.where(n, 3, 4))))
    x = np.arange(_X_MIN, _X_MAX + 1)
    exponent = four[np.abs(x)]
    exponent[:, 0] = np.where(x < 0, ord("-"), ord("+"))
    form = np.where((x < -4) | (x > 16), np.where(np.abs(x) >= 100, _SCI3, _SCI2), x + 4)
    rows = _E_MAX - _E_MIN + 1
    _tables.update(layouts=layouts, keep=keep, four=four.view(np.uint32).ravel(),
                   zeros=zeros.astype(np.int64), exponent=exponent.view(np.uint32).ravel(),
                   form=form * 17 + 16, source=np.tile(_SOURCE, (BLOCK_VALUES, 1)),
                   base=(np.arange(BLOCK_VALUES, dtype=np.uint16) * 32)[:, None],
                   filled=np.zeros(rows, dtype=bool), low_decade=np.zeros(rows, dtype=np.int32),
                   threshold=np.zeros(rows), scale=np.zeros((2 * rows, 4)))


def _fallback(values):
    """The 17 digits and decimal exponents of ``values``, read from ``format_float``."""
    digits, exponents = [], []
    for value in values.tolist():
        mantissa, _, exponent = format_float(value).lstrip("-").partition("e")
        whole, _, fraction = mantissa.partition(".")
        significant = (whole + fraction).lstrip("0")
        if exponent:
            exponents.append(int(exponent))
        elif whole != "0":
            exponents.append(len(whole) - 1)
        else:
            exponents.append(len(significant) - len(fraction) - 1)
        digits.append(int(significant.ljust(17, "0")))
    return digits, exponents


def _digits(a):
    """The 17 digits and decimal exponents of finite positive ``a``."""
    m, e = np.frexp(a)
    row = e - _E_MIN
    filled = _tables["filled"].take(row)
    if not filled.all():
        _fill(np.unique(row[~filled]))
    upper = a >= _tables["threshold"].take(row)
    x = _tables["low_decade"].take(row) + upper
    c_hi, c_half, c_rest, c_lo = np.take(_tables["scale"], 2 * row + upper, axis=0).T
    # Dekker: m * c_hi exactly as p + (the first four terms), then m * c_lo
    s = _SPLIT * m
    m_half = s - (s - m)
    m_rest = m - m_half
    p = m * c_hi
    lo = ((m_half * c_half - p) + m_half * c_rest + m_rest * c_half) + m_rest * c_rest + m * c_lo
    t = lo + 0.5
    r = np.floor(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    x += carry
    near = np.flatnonzero(np.abs(t - r - 0.5) > 0.5 - _TIE)
    if near.size:
        d[near], x[near] = _fallback(a[near])
    return d, x


def _chunk_bytes(values, row_end):
    """The CSV bytes of at most ``BLOCK_VALUES`` values; ``row_end`` is the key offset of each,
    nonzero for those that end a row."""
    n = values.size
    a = np.abs(values)
    regular = np.isfinite(a) & (a != 0.0)
    every = regular.all()
    d, x = _digits(a if every else np.where(regular, a, 1.0))
    src = _tables["source"][:n]
    words = src.view(np.uint32)
    four, zeros = _tables["four"], _tables["zeros"]
    # the first digit and four groups of four: floor division by a constant is
    # the fast integer division in NumPy, divmod is not
    top = d // 10**8
    low = d - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    groups = []
    for half in (top, low):
        high = half // 10**4
        groups += [high, half - high * 10**4]
    src[:, _DIGITS] = first + ord("0")
    for j, group in enumerate(groups, start=1):
        words[:, j] = four.take(group)
    words[:, 5] = _tables["exponent"].take(x - _X_MIN)
    # trailing zeros of the last 16 digits: most values have none in the last group
    trailing = zeros.take(groups[3])
    rest = np.flatnonzero(trailing == 4)
    if rest.size:
        g0, g1, g2 = (group[rest] for group in groups[:3])
        trailing[rest] = np.where(g2, 4 + zeros[g2], 8 + np.where(g1, zeros[g1], 4 + zeros[g0]))
    key = _tables["form"].take(x - _X_MIN)
    if not every:
        odd = ~regular
        key[odd] = 17 * np.where(np.isnan(a[odd]), _NAN_FORM,
                                 np.where(np.isinf(a[odd]), _INF_FORM, _ZERO_FORM)) + 16
    key -= trailing
    key += np.signbit(values) * (_FORMS * 17)
    key += row_end
    index = np.take(_tables["layouts"], key, axis=0)
    index += _tables["base"][:n]
    index = index[np.take(_tables["keep"], key, axis=0)].astype(np.intp)
    return src.ravel()[index].tobytes()


def rows_bytes(block):
    """The CSV bytes of a (rows, columns) float64 block; see the module docstring.

    Calls share one source buffer, so two may not run at once in one process;
    the package starts no threads, and a forked child has its own copy.
    """
    if not _tables:
        _build_tables()
    values = block.ravel()
    width = block.shape[1]
    row_end = (np.arange(values.size) % width == width - 1) * (2 * _FORMS * 17)
    return b"".join(_chunk_bytes(values[i:i + BLOCK_VALUES], row_end[i:i + BLOCK_VALUES])
                    for i in range(0, values.size, BLOCK_VALUES))
