"""Output files landed as a set: a failed or repeated run never truncates one.

CSV text is built by numpy arithmetic: each float becomes exactly the bytes of
"%.17g" % x, so the files are those that a % operation on every value writes.
"""

from pathlib import Path

import numpy as np

FORMAT_BLOCK = 8192  # values formatted at a time, which bounds the CSV writers' memory
CELL = 40  # bytes of one formatted value: its text, NUL padding, its separator last
K_MIN, K_MAX = -99, 15  # decimal exponents the arithmetic writes: two exponent digits, below 1e16
TIE_BAND = 1e-6  # digit strings whose rounding lies this close to a tie go through %

# 10^s as a double-double hi + lo, lo 0 through 10^22, for s = 16 - k = 0 to 117: every k
# that a first estimate or its correction takes for 1e-99 <= |x| < 1e16. The split halves
# of hi feed Dekker's product.
_POW_HI = np.array([float(10**s) for s in range(118)])
_POW_LO = np.array([float(10**s - int(h)) for s, h in enumerate(_POW_HI.tolist())])


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half 26 bits or fewer."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW_HH, _POW_HL = _split(_POW_HI)
# the ASCII of every four-digit group 0000 to 9999 as one little-endian word, and its trailing zeros
_GROUPS = np.arange(10000)
_QUADS = sum((_GROUPS // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)).astype("<u4")
_QUAD_ZEROS = sum((_GROUPS % 10**t == 0).astype(np.int8) for t in (1, 2, 3, 4))
# _KEEP[t]: the low t bytes of a word of eight
_KEEP = np.array([(1 << 8 * t) - 1 for t in range(9)], dtype="<u8")


def _layouts():
    """By decimal exponent k from K_MIN to K_MAX: the sign-and-prefix word for each sign,
    the exponent word, and lead, the number of digits before the point (-1: the prefix holds
    the point). %.17g writes fixed notation for -4 <= k < 17 and exponent notation below."""
    heads = np.zeros((K_MAX - K_MIN + 1, 2, 8), np.uint8)
    suffixes = np.zeros((K_MAX - K_MIN + 1, 4), np.uint8)
    leads = np.ones(K_MAX - K_MIN + 1, np.intp)
    for i, k in enumerate(range(K_MIN, K_MAX + 1)):
        prefix = b""
        if k >= 0:
            leads[i] = k + 1
        elif k >= -4:
            leads[i] = -1
            prefix = b"0." + b"0" * (-k - 1)
        else:
            suffixes[i] = np.frombuffer(b"e-%02d" % -k, np.uint8)
        for neg in (0, 1):
            text = b"-" * neg + prefix
            heads[i, neg, :len(text)] = np.frombuffer(text, np.uint8)
    return heads.view("<u8").ravel(), suffixes.view("<u4")[:, 0], leads


_HEADS, _SUFFIXES, _LEADS = _layouts()


def _scaled(a, k):
    """a * 10^(16 - k) as p + e with p the rounded product. Dekker's product makes it exact
    while 10^(16 - k) is a float (k >= -6); below that the double-double power leaves e
    within 1e-13."""
    s = 16 - k
    p = a * _POW_HI[s]
    a_hi, a_lo = _split(a)
    hh, hl = _POW_HH[s], _POW_HL[s]
    e = ((a_hi * hh - p) + a_hi * hl + a_lo * hh) + a_lo * hl
    return p, e + a * _POW_LO[s]


def _decade_shift(p, e):
    """+1 where p + e >= 1e17, -1 where p + e < 1e16, else 0; both bounds are floats."""
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    return high.astype(np.intp) - low


def _g17(x):
    """(x.size, CELL) uint8: row i holds the bytes of "%.17g" % x[i], NUL bytes anywhere
    between them, and NUL in the last two bytes, left for a separator.

    For 1e-99 <= |x| < 1e16 the digits are N = |x| 10^(16 - k) rounded to an integer, where
    the decade k puts that product, p + e, in [1e16, 1e17). k is read from p + e, not from
    p: for 1e-06, just below 10^-6, p rounds to 1e16 while p + e lies below it. p is then
    an integer (it exceeds 2^53), so N = p + rint(e). An element the arithmetic cannot
    prove goes through % itself: zero, inf, NaN, magnitudes outside that range, and
    fractions within TIE_BAND of one half.
    Bytes: 0-7 sign and "0.000" prefix, 14 the point's slot, 15-31 the 17 digits,
    32-35 "e-XX".
    """
    n = x.size
    a = np.abs(x)
    ok = (a >= 1e-99) & (a < 1e16)  # NaN fails
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)  # one off at most, either way
    p, e = _scaled(a, k)
    shift = _decade_shift(p, e)
    fix = np.flatnonzero(shift)
    if fix.size:
        k[fix] += shift[fix]
        p[fix], e[fix] = _scaled(a[fix], k[fix])
        ok[fix] &= _decade_shift(p[fix], e[fix]) == 0
    ok &= (k >= K_MIN) & (np.abs(e - np.floor(e) - 0.5) >= TIE_BAND)
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    ok &= digits < 10**17  # a round up to the next decade
    first, rest = np.divmod(digits, 10**16)
    quads = [*np.divmod(rest // 10**8, 10**4), *np.divmod(rest % 10**8, 10**4)]
    zeros = _QUAD_ZEROS[quads[3]]  # trailing zeros of the 17 digits
    more = quads[3] == 0
    for q in quads[2::-1]:
        zeros += np.where(more, _QUAD_ZEROS[q], 0)
        more &= q == 0
    i = np.where(ok, k, 0) - K_MIN
    lead, sig = _LEADS[i], 17 - zeros
    cell = np.zeros((n, CELL), np.uint8)
    words, longs = cell.view("<u4"), cell.view("<u8")
    longs[:, 0] = _HEADS[2 * i + (x < 0)]
    longs[:, 1] = (first.astype(np.uint64) + 48) << 56
    for j, q in enumerate(quads):
        words[:, 4 + j] = _QUADS[q]
    keep = np.maximum(sig, lead)  # digits kept: the integer part, then up to the last nonzero
    longs[:, 2] &= _KEEP[np.clip(keep - 1, 0, 8)]
    longs[:, 3] &= _KEEP[np.clip(keep - 9, 0, 8)]
    words[:, 8] = _SUFFIXES[i]
    point = np.where(sig > lead, ord("."), 0).astype(np.uint8)
    for v in np.flatnonzero(np.bincount(lead + 1, minlength=18)[2:]) + 1:
        rows = lead == v  # move the first v digits one byte left, the point after them
        np.copyto(cell[:, 14:14 + v], cell[:, 15:15 + v], where=rows[:, None])
        np.copyto(cell[:, 14 + v], point, where=rows)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array(["%.17g" % v for v in x[bad].tolist()], dtype=f"S{CELL}")
        cell[bad] = text.view(np.uint8).reshape(bad.size, CELL)
    return cell


def write_set(out_dir, outputs) -> None:
    """Write a command's files into out_dir together: outputs is an ordered list of
    (file name, writer, args), and writer(*args, path) writes one file. Each is written
    to a temporary file in out_dir, and only once all are written is each renamed onto
    its name; on an error the temporaries are removed, so the previous files stay. A
    rename that fails after earlier ones succeeded leaves a mix of old and new files.
    Each name is unlinked before its rename: ext4 (auto_da_alloc) flushes the new data
    when a rename replaces a file or a file is truncated, which slows rewrites severalfold."""
    out_dir = Path(out_dir)
    staged = [(out_dir / f".{name}.tmp", out_dir / name) for name, _, _ in outputs]
    try:
        for (tmp, _), (_, writer, args) in zip(staged, outputs):
            writer(*args, tmp)
        for tmp, path in staged:
            path.unlink(missing_ok=True)
            tmp.rename(path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _cells(a: np.ndarray) -> np.ndarray:
    """(rows, cols, width) uint8: each field's bytes, then two NUL bytes for its separator."""
    if a.dtype.kind == "S":
        out = np.zeros(a.shape + (a.itemsize + 2,), np.uint8)
        out[..., :-2] = np.ascontiguousarray(a).view(np.uint8).reshape(a.shape + (a.itemsize,))
        return out
    return _g17(np.asarray(a, dtype=float).ravel()).reshape(a.shape + (CELL,))


def _csv_blocks(table):
    """The bytes of table's lines, FORMAT_BLOCK values at a time."""
    arrays = [np.asarray(a) for a in table]
    n_rows = arrays[0].shape[0]
    arrays = [a for a in arrays if a.shape[1]]
    if not arrays:
        yield b"\r\n" * n_rows
        return
    step = max(1, FORMAT_BLOCK // sum(a.shape[1] for a in arrays))
    for start in range(0, n_rows, step):
        cells = [_cells(a[start:start + step]) for a in arrays]
        for c in cells:
            c[..., -2] = ord(",")
        cells[-1][:, -1, -2:] = (ord("\r"), ord("\n"))
        lines = np.concatenate([c.reshape(c.shape[0], -1) for c in cells], axis=1)
        yield lines[lines != 0].tobytes()


def write_csv(path, *tables) -> None:
    """Write CSV text to path: the lines of each table in turn. A table is a tuple of
    2-D arrays with one row per line, joined left to right; float arrays are written as
    "%.17g" % v writes each value, bytes arrays as they are. Lines end in CRLF, as
    csv.writer ends them, but nothing is quoted: no field may hold a comma, a quote, a
    line break or a NUL."""
    with open(path, "wb") as fh:
        for table in tables:
            for block in _csv_blocks(table):
                fh.write(block)
