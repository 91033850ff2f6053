"""Report and scan CSV text: `json_text` and `write_scan_csv`. Each float is
its `repr`; the digits of those with |x| in [1e-4, 1) come from one call of
the digit kernel, `_shortest_digits`, per report or per block of CSV rows."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

_KERNEL_MIN_FLOATS = 140  # from this many floats in [1e-4, 1) on, one kernel call beats `repr`
_BLOCK_ROWS = 32  # theta21 rows per CSV template


def json_text(x) -> str:
    """`json.dumps(x, indent=2, sort_keys=True, default=np.ndarray.tolist)`,
    byte for byte, for trees of str-keyed dicts, lists, tuples, numpy arrays
    (complex128 ones as their entries in C order, each an [re, im] pair),
    str, int, float, bool and None; TypeError for any other value. The tree
    is walked once into a `%` template, in which each float of a float64
    array of shape (k,) or (k, 2) is two `%s` slots, filled once from
    `_float_fields`: json encodes item by item in Python when it indents."""
    floats = []
    return _template(x, 0, floats) % _float_fields(floats)


def _float_text(x: float) -> str:
    """json's spelling of a float (np.float64 too)."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _float_fields(floats: list[np.ndarray]) -> tuple:
    """Two fields per float of the flat float64 arrays `floats`, whose
    concatenation is its json text. From `_KERNEL_MIN_FLOATS` floats with
    |x| in [1e-4, 1) on, one `_shortest_digits` call gives each of those its
    sign-and-decade prefix and its digits; every other float (kind -1), and
    every float of a smaller report, gets its text and "". Kind -1 texts are
    spelled once per distinct bit pattern (so 0.0 and -0.0 stay apart)."""
    x = np.concatenate(floats) if floats else np.empty(0)
    fields = [""] * (2 * x.size)
    if np.count_nonzero((abs(x) >= 1e-4) & (abs(x) < 1.0)) < _KERNEL_MIN_FLOATS:
        fields[::2] = map(_float_text, x.tolist())
        return tuple(fields)
    kinds, digits = _shortest_digits(x)
    heads, tails, slow = _PREFIXES[kinds], digits.astype(object), kinds == -1
    bits, which = np.unique(x[slow].view(np.int64), return_inverse=True)
    texts = np.array([_float_text(v) for v in bits.view(np.float64).tolist()], dtype=object)
    heads[slow], tails[slow] = texts[which], ""
    fields[::2], fields[1::2] = heads.tolist(), tails.tolist()
    return tuple(fields)


def _template(x, level: int, floats: list) -> str:
    """The text of `x` with `%` escaped, but for the floats of each float64
    array of shape (k,) or (k, 2), a complex128 one taken as its [re, im]
    rows: two `%s` slots each, the array appended to `floats`."""
    if isinstance(x, str):
        return encode_basestring_ascii(x).replace("%", "%%")
    if isinstance(x, float):  # np.float64 too, as json spells it
        return _float_text(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    sep = "," + inner
    if isinstance(x, np.ndarray):
        if x.dtype == np.complex128:
            x = np.stack([x.real, x.imag], -1).reshape(-1, 2)
        if x.dtype != np.float64 or x.ndim == 0 or x.shape[1:] not in ((), (2,)) or not x.size:
            return _template(x.tolist(), level, floats)
        floats.append(x.ravel())
        slot = "%s%s" if x.ndim == 1 else f"[{inner}  %s%s,{inner}  %s%s{inner}]"
        return f"[{inner}{sep.join([slot] * len(x))}{outer}]"
    if not isinstance(x, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    if isinstance(x, dict):
        items = sep.join([f"{encode_basestring_ascii(k).replace('%', '%%')}: "
                          f"{_template(v, level + 1, floats)}" for k, v in sorted(x.items())])
        return f"{{{inner}{items}{outer}}}"
    return f"[{inner}{sep.join([_template(v, level + 1, floats) for v in x])}{outer}]"


def write_scan_csv(scan, path) -> None:
    """A `pipeline.ScanResult` grid as CSV: header theta21,theta31,
    min_singular_value,rank, one row per point, LF line endings, each float
    its `repr`. Each block of `_BLOCK_ROWS` theta21 rows is one bytes `%`
    template, one slot per cell, in the piece its kind from `_csv_fields`
    picks: theta31, the sign-and-decade prefix and rank 3 around a `%d`
    slot for the digits, or, for kind -1, theta31 before a `%s` slot for
    the cell's bytes. The writer holds one block, whatever the grid."""
    thetas = [repr(t).encode() for t in scan.thetas.tolist()]
    pieces = np.array([[t + b"," + prefix.encode() + b"%d,3\n" for t in thetas]
                       for prefix in _PREFIXES[:-1]]
                      + [[t + b",%s\n" for t in thetas]], dtype=object)
    cols, leads = np.arange(len(thetas)), [t + b"," for t in thetas]
    with open(path, "wb") as fh:
        fh.write(b"theta21,theta31,min_singular_value,rank\n")
        for start in range(0, len(thetas), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            kinds, fields = _csv_fields(scan.min_singular_values[rows], scan.ranks[rows])
            template = b"".join([lead + lead.join(row) for lead, row in zip(
                leads[rows], pieces[kinds, cols].tolist())])
            fh.write(template % tuple(fields))


def _csv_fields(sigma: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, list]:
    """A kind per cell, in the cells' shape, and the flat list of their
    fields. A rank-3 value with |x| in [1e-4, 1) has its kind and digits D from
    `_shortest_digits`, `_PREFIXES[kind]` + D == repr; every other cell has
    kind -1 and the field b"repr,rank"."""
    kinds, digits = _shortest_digits(sigma)
    kinds[ranks.ravel() != 3] = -1
    fields = digits.tolist()
    slow = np.flatnonzero(kinds == -1)
    for i, s, r in zip(slow.tolist(), sigma.ravel()[slow].tolist(), ranks.ravel()[slow].tolist()):
        fields[i] = b"%r,%d" % (s, r)
    return kinds.reshape(sigma.shape), fields


_DECADE_FLOORS = np.array([1e-3, 1e-2, 1e-1])  # each double lies above its power of ten
_PREFIXES = np.array(["0.000", "0.00", "0.0", "0.", "-0.000", "-0.00", "-0.0", "-0.", ""],
                     dtype=object)
_DECADE_SCALES = 10.0 ** np.arange(20, 16, -1)  # 10**(16 - E), exact


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For doubles of any shape: each one's kind and the int D of its
    digits, as two 1-d arrays in the order of `x.ravel()`. Kind k >= 0
    indexes its sign-and-decade prefix in `_PREFIXES` (the decade, plus 4
    when x < 0), and prefix + str(D) == repr(x); kind -1 marks |x| outside
    [1e-4, 1), 0, NaN and inf included, and its D means nothing.

    For a = |x|, E = floor(log10 a) is exact from `_DECADE_FLOORS`, and
    Dekker's product on Veltkamp halves gives y = a * 10**(16 - E) exactly
    as p + err. Rounded half-to-even, y is the 17-digit int y_int,
    t = y - y_int exactly, and rounding (y_int, t) to 16 or 15 digits is
    integer work. A k-digit D reads back as a iff |D * 10**(17 - k) - y|,
    a double, is below half an ulp of a (from `np.frexp`) times
    10**(16 - E): no D lies on the bound, a dyadic of 50+ digits. No two
    15-digit decimals read back as one double, so `repr` (the shortest
    digits that read back, the nearest, ties to even; Gay 1990) is the
    first of the 15-, 16- and 17-digit roundings that reads back (the last
    always does), as "0." + "0" * (-E - 1) + D without trailing zeros.
    A power of two there has 10 digits or fewer, so its asymmetric
    interval never matters. The sign only picks the prefix. Each
    input-sized temporary is dropped once it is used.
    """
    x = np.ravel(x)
    a = np.abs(x)
    out = ~((a >= 1e-4) & (a < 1.0))  # NaN too
    a[out] = 0.30000000000000004  # 17 digits, no trailing zero: the loop below skips it
    kinds = np.searchsorted(_DECADE_FLOORS, a, side="right")  # -E - 1 = 3 - decade
    half_ulp = np.ldexp(_DECADE_SCALES[kinds], np.frexp(a)[1] - 54)
    p = a * _DECADE_SCALES[kinds]
    (a_hi, a_lo), s_hi, s_lo = _veltkamp(a), _SCALE_HI[kinds], _SCALE_LO[kinds]
    np.add(kinds, 4, out=kinds, where=x < 0)
    kinds[out] = -1
    del a, out
    err = a_hi * s_hi - p
    err += a_hi * s_lo
    err += a_lo * s_hi
    err += a_lo * s_lo
    del a_hi, a_lo, s_hi, s_lo
    carry = np.rint(err)  # p >= 1e16 > 2**53 is an even int
    y_int = p.astype(np.int64) + carry.astype(np.int64)
    err -= carry  # t = y - y_int
    del p, carry
    d = y_int.copy()
    for unit in (10, 100):  # 16, then 15 digits, the shorter overriding
        head = y_int // unit  # floor division by a constant is fast, % is not
        rest = (y_int - head * unit) + err  # y - unit * head
        head += (rest > unit / 2) | ((rest == unit / 2) & (head & 1 == 1))
        del rest
        np.copyto(d, head, where=np.abs((head * unit - y_int) - err) < half_ulp)
    zeros = np.flatnonzero(d // 10 * 10 == d)  # d >= 10**14, so this ends
    while zeros.size:
        d[zeros] //= 10
        zeros = zeros[d[zeros] // 10 * 10 == d[zeros]]
    return kinds, d


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = a * (2.0**27 + 1.0)  # a = hi + lo exactly, in two 26-bit halves
    hi = t - (t - a)
    return hi, a - hi


_SCALE_HI, _SCALE_LO = _veltkamp(_DECADE_SCALES)
