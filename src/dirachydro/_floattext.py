"""Float64 values as text, rendered by NumPy a block at a time, in two forms.

``csv_blocks(columns, start, stop)`` yields the CSV bytes of the rows
``[start, stop)`` of 1-D float64 columns side by side: the values of a row
joined by ``,``, every row ended by CRLF, and each value bitwise its 17
significant digits in ``%g`` layout (``nan``, ``inf``, ``-inf``, ``0`` and
``-0`` included).

``json_blocks(values, separator)`` yields the JSON text of a 1-D float64
array: each value bitwise ``float.__repr__(value)``, the shortest digits
that read back as the value, ``null`` for NaN and infinities, the values
joined by ``separator``.  These are the samples ``json.dumps`` writes for
the list with None in place of each non-finite value.

Each yields one gather of at most ``BLOCK_VALUES`` values at a time, so the
text in memory is bounded by the block; this module is the one place that
block size is decided.

The scale.  A finite nonzero ``|x| = m * 2**e`` with m in [0.5, 1) lies in
the decade k with ``10**k <= |x| < 10**(k + 1)``.  For a given e, k is one
of two values, told apart exactly by the smallest double at or above the
upper one's power of ten.  ``X = |x| * 10**(16 - k) = m * C`` with
``C = 2**e * 10**(16 - k)`` lies in [1e16, 1e17).  C is held as a
double-double whose parts are correctly rounded from Python ints, and
``m * C`` is formed as ``P + lo`` with Dekker's exact product of two
doubles (Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 1971).  As ``P >= 1e16 > 2**53``, P is an
integer, and ``P + lo`` is within 1e-13 of X.  Scale constants exact to
the last bit are the approach of Adams, "Ryu revisited: printf floating
point conversion", OOPSLA 2019.

The 17 digits (CSV) are ``round(X)``: only the fraction of lo decides it.

The shortest digits (JSON) are those of Steele & White, "How to print
floating-point numbers accurately", PLDI 1990, as Gay's dtoa gives them to
``repr``; Adams, "Ryu: fast float-to-string conversion", PLDI 2018, finds
them from the same interval.  In units of X, half the gap to the next
double is ``delta = 2**(max(e - 54, -1075) - e) * C``, an exact scaling,
subnormals included; the gap below is half as wide at a power of two above
the smallest normal.  The integers from ``L = P + ceil(lo - delta_below)``
to ``H = P + floor(lo + delta)`` read back as x, and ``delta >= 0.555``
keeps ``round(X)`` among them.  The digits are the multiple of ``10**j``
in [L, H] for the largest j there is one, the one nearest X where there
are several.  j is 0 or 1 for most values.  [L, H] holds fewer than 100
integers (``delta <= 11.1`` for a normal double), so where it holds a
multiple of 100, that one is the multiple of ``10**j`` for the largest j,
and the layout's count of its trailing zeros gives j.

Either form leaves a value to the scalar oracle, Python's own formatting
(``%g`` with 17 digits for CSV, ``float.__repr__`` for JSON), where its
digits are too close to call:
a rounding within ``_TIE`` of a tie, an end of [L, H] within ``_TIE`` of an
integer, or a half gap wider than ``_WIDE`` (subnormals below 1e-309).  A
value whose digits reach ``10**17`` moves to the next decade.

The text.  Each value's 17 digits, the sign and digits of its decimal
exponent and a few fixed characters are written into a 36-byte source row.
A layout, chosen by sign, form (fixed point, scientific with a 2- or
3-digit exponent, zero, nan, inf), significant-digit count and whether the
value ends its row, lists the source bytes of the value's text and
separator.  One gather through the layouts, compacted by a mask of the
same key, gives the bytes.  The two outputs differ only in their layouts:
CSV is fixed point for decimal exponents -4 to 16 and writes ``0``,
``nan`` and ``inf``; JSON is fixed point for -4 to 15, ends an integral
fixed-point value in ``.0``, and writes ``0.0`` and ``null``.

The tables are filled on first use, so that importing this module costs
nothing.  The writers import it with their first table or array and call
``output_tables`` for its form before they fork any part: the shared
tables and that form's layouts are built once, in the writing process, and
every part's process inherits them.  The scales are filled only for the
binary exponents a block holds, in the process that renders the block; the
rows still empty are found with ``np.bincount``, not ``np.unique``, which
asks ``numpy.ma`` whether its input is masked and so imports it.  This
module imports nothing from the package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# a rounding or an end of [L, H] this close to a tie or an integer is left to the
# scalar oracle, far above the error bound
_TIE = 1e-6
# half a gap wider than this, in units of the last of 17 digits, is left to the
# oracle, so that an interval holds fewer than 100 integers: only subnormals below
# 1e-309 have wider gaps
_WIDE = 40.0
# Dekker's split of a double into two 26-bit halves
_SPLIT = 134217729.0
# the binary exponents np.frexp gives the finite nonzero doubles
_E_MIN, _E_MAX = -1073, 1024
# values rendered per gather: a block's transient arrays stay in the cache, and
# its source offsets fit in uint16
BLOCK_VALUES = 1536

# a value's source row: 17 digits at 3..19, the exponent's sign and 3 digits
# at 20..23, and the letters of nan, inf and null at 28..33
_SOURCE = np.frombuffer(b"-0." + b"0" * 17 + b"+000e,\r\nnaiful\0\0", dtype=np.uint8)
_ROW = _SOURCE.size
_MINUS, _ZERO, _POINT, _DIGITS, _EXPONENT, _E, _COMMA, _CR, _LF = 0, 1, 2, 3, 20, 24, 25, 26, 27
_NAN, _INF, _NULL = (28, 29, 28), (30, 28, 31), (28, 32, 33, 33)
# forms: 0..20 fixed point for decimal exponents -4..16, then these
_SCI2, _SCI3, _ZERO_FORM, _NAN_FORM, _INF_FORM = 21, 22, 23, 24, 25
_FORMS = 26
# decimal exponents of the finite doubles, their carries included, offset to index a table
_X_MIN, _X_MAX = -324, 309
# the longest text and separator: "-1.2345678901234567e-308\r\n"
_WIDTH = 26
# key = ((last * 2 + negative) * _FORMS + form) * 17 + significant digits - 1
_KEYS = 4 * _FORMS * 17
# the key offset of a value that ends its row
_ROW_END = 2 * _FORMS * 17


class _Output(NamedTuple):
    """The layout rules of one output form, as source offsets."""

    name: str
    largest_fixed: int  # the largest decimal exponent written in fixed point
    integral: tuple     # what follows an integral fixed-point value
    texts: dict         # the texts of the zero, nan and inf forms
    unsigned: tuple     # the forms written without a sign
    separators: tuple   # what follows a value, and what follows a row's last value


_CSV = _Output("csv", 16, (), {_ZERO_FORM: (_ZERO,), _NAN_FORM: _NAN, _INF_FORM: _INF},
               (_NAN_FORM,), ((_COMMA,), (_CR, _LF)))
_JSON = _Output("json", 15, (_POINT, _ZERO),
                {_ZERO_FORM: (_ZERO, _POINT, _ZERO), _NAN_FORM: _NULL, _INF_FORM: _NULL},
                (_NAN_FORM, _INF_FORM), ((_COMMA,), ()))

_OUTPUTS = {output.name: output for output in (_CSV, _JSON)}

# the tables, once built: the shared text tables, the scales filled a binary exponent
# at a time, and each output's layouts, built on its first use
_tables = {}


def _ratio(e, k):
    """``2**e * 10**k`` as (numerator, denominator) Python ints."""
    return (1 << max(e, 0)) * 10 ** max(k, 0), (1 << max(-e, 0)) * 10 ** max(-k, 0)


def _fill(rows):
    """Fill the scale rows given, each from exact integer arithmetic.

    Row ``e - _E_MIN`` holds, for the binary exponent e: the lower k0 of the
    two decades of [2**(e - 1), 2**e), the smallest double at or above
    10**(k0 + 1), and for the decades k0 and k0 + 1, at ``2 * row`` and
    ``2 * row + 1``, C's high part, its two Dekker halves and C's low part,
    and in units of X half the gap to a double's neighbour above and to a
    power of two's neighbour below.
    """
    filled, low_decade, threshold_of, scale, gaps = (
        _tables[name] for name in ("filled", "low_decade", "threshold", "scale", "gaps"))
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
            gap = math.ldexp(hi, max(e - 54, -1075) - e)
            # below a power of two the gap halves, except at the smallest normal
            gaps[2 * row + j] = gap, gap / 2 if e > -1021 else gap
        filled[row] = True


def _body(form, significant, output):
    """The source offsets of an unsigned text of one form and significant-digit count."""
    digits = bytes(range(_DIGITS, _DIGITS + 17))
    if form < _SCI2:
        x = form - 4
        if x < 0:
            return bytes([_ZERO, _POINT] + [_ZERO] * (-x - 1)) + digits[:significant]
        # an integer part longer than the significant digits keeps its zeros
        fraction = digits[x + 1:significant]
        return digits[:x + 1] + (bytes([_POINT]) + fraction if fraction else bytes(output.integral))
    if form <= _SCI3:
        fraction = digits[1:significant]
        exponent = range(_EXPONENT + (2 if form == _SCI2 else 1), _E)
        return (digits[:1] + (bytes([_POINT]) + fraction if fraction else b"")
                + bytes([_E, _EXPONENT, *exponent]))
    return bytes(output.texts[form])


def _layouts(output):
    """The layouts and masks of every key, and the key of each decimal exponent's form."""
    bodies = [(form, _body(form, significant, output))
              for form in range(_FORMS) for significant in range(1, 18)]
    texts = [bytes([_MINUS]) * (negative and form not in output.unsigned) + body + bytes(separator)
             for separator in output.separators for negative in (0, 1)
             for form, body in bodies]
    layouts = np.frombuffer(b"".join(text.ljust(_WIDTH, b"\0") for text in texts),
                            dtype=np.uint8).reshape(_KEYS, _WIDTH).astype(np.uint16)
    keep = np.arange(_WIDTH) < np.array([len(text) for text in texts])[:, None]
    x = np.arange(_X_MIN, _X_MAX + 1)
    form = np.where((x < -4) | (x > output.largest_fixed),
                    np.where(np.abs(x) >= 100, _SCI3, _SCI2), x + 4)
    return {"layouts": layouts, "keep": keep, "form": form * 17 + 16}


def _build_tables():
    """Digit and exponent words, the source rows, and the scale rows, all empty."""
    n = np.arange(10000)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    four = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
    # trailing zeros of a 4-digit group, 4 for 0000
    zeros = np.where(n % 10, 0, np.where(n % 100, 1, np.where(n % 1000, 2, np.where(n, 3, 4))))
    x = np.arange(_X_MIN, _X_MAX + 1)
    exponent = four[np.abs(x)]
    exponent[:, 0] = np.where(x < 0, ord("-"), ord("+"))
    rows = _E_MAX - _E_MIN + 1
    _tables.update(four=four.view(np.uint32).ravel(),
                   zeros=zeros.astype(np.int64), exponent=exponent.view(np.uint32).ravel(),
                   source=np.tile(_SOURCE, (BLOCK_VALUES, 1)),
                   base=(np.arange(BLOCK_VALUES, dtype=np.uint16) * _ROW)[:, None],
                   filled=np.zeros(rows, dtype=bool), low_decade=np.zeros(rows, dtype=np.int32),
                   threshold=np.zeros(rows), scale=np.zeros((2 * rows, 4)),
                   gaps=np.zeros((2 * rows, 2)))


def _fallback(values, text):
    """The 17 digits, padded with zeros, and decimal exponents of ``values``, read from
    ``text(value)``: the ``%g`` layout or ``repr``'s."""
    digits, exponents = [], []
    for value in values.tolist():
        mantissa, _, exponent = text(value).lstrip("-").partition("e")
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


def _scaled(a):
    """For finite positive ``a``: m of ``np.frexp``, the scale row of each value,
    its decimal exponent k, and X as ``P + lo``, P an integral float."""
    m, e = np.frexp(a)
    row = e - _E_MIN
    filled = _tables["filled"].take(row)
    if not filled.all():
        # not np.unique, which imports numpy.ma
        _fill(np.flatnonzero(np.bincount(row[~filled])))
    upper = a >= _tables["threshold"].take(row)
    x = _tables["low_decade"].take(row) + upper
    row = 2 * row + upper
    c_hi, c_half, c_rest, c_lo = np.take(_tables["scale"], row, axis=0).T
    # Dekker: m * c_hi exactly as p + (the first four terms), then m * c_lo
    s = _SPLIT * m
    m_half = s - (s - m)
    m_rest = m - m_half
    p = m * c_hi
    lo = ((m_half * c_half - p) + m_half * c_rest + m_rest * c_half) + m_rest * c_rest + m * c_lo
    return m, row, x, p, lo


def _carry(d, x):
    """Move digits ``d`` that reached 10**17 to the next decade, in place."""
    carry = d == 10**17
    d[carry] = 10**16
    x += carry


def _digits(a):
    """The 17 digits and decimal exponents of finite positive ``a``."""
    _, _, x, p, lo = _scaled(a)
    t = lo + 0.5
    r = np.floor(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    _carry(d, x)
    near = np.flatnonzero(np.abs(t - r - 0.5) > 0.5 - _TIE)
    if near.size:
        d[near], x[near] = _fallback(a[near], "%.17g".__mod__)
    return d, x


def _shortest(a):
    """The shortest digits that read back as finite positive ``a``, padded with zeros
    to 17, and their decimal exponents."""
    m, row, x, p, lo = _scaled(a)
    gap, narrow = np.take(_tables["gaps"], row, axis=0).T
    big = p.astype(np.int64)
    base = big // 100 * 100
    rest = big - base
    # X - base, in [-16, 116), and the ends of the interval that reads back as the value
    y = rest + lo
    up = y + gap
    down = y - np.where(m == 0.5, narrow, gap)
    # j = 0: round(X); j = 1: the multiple of ten in the interval nearest X; j >= 2: the
    # interval holds fewer than 100 integers, so its one multiple of 100 is the multiple
    # of 10**j for the largest j, and the layout counts its zeros
    t0 = lo + 0.5
    r0 = np.floor(t0)
    t1 = y / 10 + 0.5
    r1 = np.floor(t1)
    low1, high1 = np.ceil(down / 10), np.floor(up / 10)
    tens = low1 <= high1
    high2 = np.floor(up / 100)
    d = base + np.where(np.ceil(down / 100) <= high2, high2 * 100,
                        np.where(tens, np.minimum(np.maximum(r1, low1), high1) * 10,
                                 rest + r0)).astype(np.int64)
    _carry(d, x)
    # too close to call: X near halfway between two candidates, an end near an integer
    near = np.where(tens, np.abs(t1 - r1 - 0.5) > 0.5 - _TIE / 10,
                    np.abs(t0 - r0 - 0.5) > 0.5 - _TIE)
    near |= np.abs(up - np.rint(up)) < _TIE
    near |= np.abs(down - np.rint(down)) < _TIE
    near |= gap > _WIDE
    near = np.flatnonzero(near)
    if near.size:
        d[near], x[near] = _fallback(a[near], float.__repr__)
    return d, x


def output_tables(form):
    """The layout tables of the output ``form``, "csv" or "json", built on first use
    with the shared tables.

    A writer that renders in forked parts calls this before the fork, so that every
    part's process inherits the tables instead of building them again.
    """
    if form not in _tables:
        if not _tables:
            _build_tables()
        _tables[form] = _layouts(_OUTPUTS[form])
    return _tables[form]


def _gather(values, row_end, tables, digits):
    """The bytes of at most ``BLOCK_VALUES`` values in the output form of the layout
    ``tables``, their digits from ``digits``; ``row_end`` is the key offset of each,
    nonzero for those that end a row."""
    n = values.size
    a = np.abs(values)
    regular = np.isfinite(a) & (a != 0.0)
    every = regular.all()
    d, x = digits(a if every else np.where(regular, a, 1.0))
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
    key = tables["form"].take(x - _X_MIN)
    if not every:
        odd = ~regular
        key[odd] = 17 * np.where(np.isnan(a[odd]), _NAN_FORM,
                                 np.where(np.isinf(a[odd]), _INF_FORM, _ZERO_FORM)) + 16
    key -= trailing
    key += np.signbit(values) * (_FORMS * 17)
    key += row_end
    index = np.take(tables["layouts"], key, axis=0)
    index += _tables["base"][:n]
    index = index[np.take(tables["keep"], key, axis=0)].astype(np.intp)
    return src.ravel()[index].tobytes()


def csv_blocks(columns, start, stop):
    """The CSV bytes of the rows ``[start, stop)`` of the 1-D float64 ``columns`` side
    by side, one gather at a time; see the module docstring.

    Each block of rows is copied from slices of the columns, and a row wider than
    a gather is rendered a gather of its values at a time.  Gathers share one
    source buffer, so two may not run at once in one process; the package starts
    no threads, and a forked child has its own copy.
    """
    tables = output_tables("csv")
    width = len(columns)
    block_rows = max(1, BLOCK_VALUES // width)
    block = np.empty((min(block_rows, stop - start), width))
    row_end = (np.arange(block.size) % width == width - 1) * _ROW_END
    for begin in range(start, stop, block_rows):
        end = min(begin + block_rows, stop)
        for j, column in enumerate(columns):
            block[:end - begin, j] = column[begin:end]
        values = block[:end - begin].ravel()
        for i in range(0, values.size, BLOCK_VALUES):
            j = min(i + BLOCK_VALUES, values.size)
            yield _gather(values[i:j], row_end[i:j], tables, _digits)


def json_blocks(values, separator):
    """The JSON text of the 1-D float64 ``values`` joined by the bytes ``separator``,
    one gather at a time; see the module docstring.  Shares ``csv_blocks``'s
    source buffer.

    A block that does not end the array ends in ``separator``.
    """
    tables = output_tables("json")
    for i in range(0, values.size, BLOCK_VALUES):
        block = values[i:i + BLOCK_VALUES]
        # the last value ends the one row, and every other one is followed by a
        # comma, which no value's text holds
        row_end = (np.arange(i, i + block.size) == values.size - 1) * _ROW_END
        yield _gather(block, row_end, tables, _shortest).replace(b",", separator)
