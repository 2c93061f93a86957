"""Command-line front end.

Subcommands: validate, deco-grid, density, timescales, asymptotic,
propagate, scan.  All numeric output is CSV with values rendered in
scientific notation at 15 significant digits, so identical configs and
flags produce bit-identical files.  Diagnostics go to standard error.

Exit codes: 0 on success, 1 for usage or configuration errors and for
output that cannot be written (an ``--out`` path, or a standard output
that its reader closed), 2 for physical-validity failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

import numpy as np

from . import lyapunov, single_mode
from .config import SECTIONS, RunConfig, load_config
from .core import (
    NODE_BLOCK,
    RENDER_EXP_MAX,
    RENDER_TIE_MARGIN,
    ThermalParams,
    correlated_coherent_state,
    covariance_blocks,
    entry_invariants,
    gibbs_coefficients,
    gibbs_diffusion,
    not_negative,
    one_mode_checks,
    validate_single_mode,
    validate_two_mode,
)
from .errors import ConfigError, InvalidEnvironmentError, LindoscError, ParameterError
from .separability import (
    SCAN_STATUSES,
    closed_form_route,
    scan_separability,
    simon_verdicts,
)
from .two_mode import (
    cross_block_route,
    diffusion_matrix,
    drift_matrix,
    model_params,
    propagate_entries,
    steady_covariance_closed_form,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2

#: CSV names of the ten independent entries of a 4x4 covariance matrix.
COV_ENTRIES = ("sigma_xx", "sigma_xpx", "sigma_xy", "sigma_xpy", "sigma_pxpx", "sigma_ypx",
               "sigma_pxpy", "sigma_yy", "sigma_ypy", "sigma_pypy")


def _cov_entries(a, b, c):
    """The ``COV_ENTRIES`` from the entries of the blocks A, B and C."""
    return a[0], a[1], c[0], c[1], a[3], c[2], c[3], b[0], b[1], b[3]


class Gather(NamedTuple):
    """A :class:`CsvTable` column given as its distinct ``values`` and each
    row's ``index`` into them, as a grid axis or a column of labels is."""

    values: np.ndarray
    index: np.ndarray


class _Rows:
    """Row count and row tuples of a :class:`CsvTable`, built on access."""

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self):
        return sum(size for size, _ in self._blocks)

    def __iter__(self):
        for _, columns in self._blocks:
            yield from zip(*((np.take(*c) if isinstance(c, Gather) else c).tolist()
                             for c in columns))


class CsvTable:
    """Rectangular table rendered deterministically, as ASCII bytes.

    The table keeps blocks of equally long 1-D columns: one block per
    :meth:`add_columns` call, and a block of one row per :meth:`add`.  Each
    column renders by its dtype: floats as ``%.14e`` (15 significant
    digits), bools as ``true``/``false``, bytes as they are, everything
    else through ``str``.  Text must be ASCII.  :meth:`add` types each value
    on its own, so a column may mix types.  A :class:`Gather` column, such
    as a grid axis or a column of labels, holds its distinct values once.

    :meth:`render` formats the values of each gathered column once per
    block.  It casts every float column to float64, as ``'%.14e'`` converts
    a value to a Python float, and then works on slices of the block: a
    slice holds at most ``_SLICE_CELLS`` cells of the float kernel, and at
    most twice as many cells in all.  Each column's slice becomes a cell
    matrix: a row of bytes per cell, its text padded with NUL bytes.
    Gathered columns take their rows (:func:`_take_rows`) from their
    distinct cells, cut once per block to the bytes those use; the other
    float columns are stacked column by column and formatted in one call of
    the numpy kernel :func:`_float_cells`, and each column's cells are cut
    to the bytes that its slice uses (:func:`_float_columns`).  A float
    column object that a block holds at more than one position (one array
    passed twice to :meth:`add_columns`) is stacked once, its cell matrix
    joined at each position, and the kernel's cell count takes it once.  A
    bytes column is its own cell matrix, and any other column takes the
    characters of its text (:func:`_text_cells`).  The slice's matrices are
    then joined with ``,`` and ``\\n`` columns in a ``bytearray``, and its
    NUL bytes deleted (:func:`_join_rows`).  Each slice's bytes go to the
    writer as soon as they are joined, so the output is never held whole;
    they are the bytes of formatting value by value.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        self._blocks = []

    @property
    def rows(self) -> _Rows:
        return _Rows(self._blocks)

    def add(self, *values):
        self.add_columns(*([v] for v in values))

    def add_columns(self, *columns):
        """Append one row per entry of the equally long 1-D ``columns``; a
        :class:`Gather` column has a row per entry of its ``index``."""
        if len(columns) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} columns, got {len(columns)}")
        cells = tuple(Gather(*map(np.asarray, c)) if isinstance(c, Gather) else np.asarray(c)
                      for c in columns)
        shapes = [c.index.shape if isinstance(c, Gather) else c.shape for c in cells]
        if len(set(shapes)) > 1 or len(shapes[0]) != 1:
            raise ValueError(f"columns differ in shape: {shapes}")
        for c in cells:
            if isinstance(c, Gather) and not (
                    c.values.ndim == 1 and c.index.dtype.kind in "iu"
                    and (c.index.size == 0 or 0 <= c.index.min() <= c.index.max() < c.values.size)):
                raise ValueError(f"a gathered column needs 1-D values and integer indices "
                                 f"into them, got {c.values.size} values")
        self._blocks.append((shapes[0][0], cells))

    def render(self, write):
        """Pass the header line, then each slice's lines as soon as they are
        joined, to ``write`` as ``bytes`` or ``bytearray``."""
        write((",".join(self.columns) + "\n").encode())
        for size, cells in self._blocks:
            # None marks a column of text, or of the slice's stacked float call
            tables = [(_column_cells(c.values), c.index) if isinstance(c, Gather) else None
                      for c in cells]
            # each distinct float column object once, by id, cast to float64
            with np.errstate(over="ignore"):  # as float(): beyond float64, a wider float is inf
                stacked = {id(c): c.astype(float, copy=False) for c, table in zip(cells, tables)
                           if table is None and c.dtype.kind == "f"}
            # at most _SLICE_CELLS float cells and 2 _SLICE_CELLS cells in all,
            # and no slice empty
            slices = min(size, max(-(-size * len(stacked) // _SLICE_CELLS),
                                   -(-size * len(cells) // (2 * _SLICE_CELLS))))  # rounded up
            for k in range(slices):
                rows = slice(k * size // slices, (k + 1) * size // slices)
                floats = dict(zip(stacked, _float_columns(
                    np.stack([c[rows] for c in stacked.values()])))) if stacked else {}
                matrices = [_take_rows(*table, rows) if table is not None
                            else floats[id(c)] if id(c) in floats
                            else _text_cells(c[rows])
                            for c, table in zip(cells, tables)]
                floats = None  # the kernel's words live on only in matrices
                write(_join_rows(matrices))


#: Float-kernel cells per render slice, at most; a slice holds at most
#: twice as many cells in all.  The kernel holds about 100 bytes per value
#: at its peak, the cells it returns included, where a gathered cell is a
#: take of at most 22 bytes and a text cell its characters, and the join's
#: row matrix takes one byte per cell byte.  So a slice's buffers stay near
#: 0.8 MB, and they are all that render holds of the output: each slice
#: goes to the writer as soon as it is joined, from a heap that ``main``
#: pins (:func:`_pin_heap`).
_SLICE_CELLS = 8 * NODE_BLOCK


def _column_cells(c: np.ndarray) -> np.ndarray:
    """Cell matrix of the whole 1-D column ``c``: floats, cast to float64,
    through :func:`_float_cells`, anything else through :func:`_text_cells`;
    cut to the span of byte columns that some cell fills."""
    if c.dtype.kind != "f":
        cells = _text_cells(c)
    else:
        with np.errstate(over="ignore"):  # as float(): beyond float64, a wider float is inf
            cells = _float_cells(c.astype(float, copy=False))
    used = np.flatnonzero(cells.any(axis=0))
    return np.ascontiguousarray(cells[:, used[0]:used[-1] + 1] if used.size else cells[:, :0])


def _float_columns(stack: np.ndarray) -> list:
    """Cell matrices of the columns of a slice, the rows of the float64
    ``stack``, each cut to the bytes that its cells use: the sign byte only
    if one of them is ``-``, and body byte 21 only if a three-digit exponent
    fills it."""
    cells = _float_cells(stack)
    start = (cells[..., 0].max(axis=1) == 0).tolist()
    stop = (cells[..., _CELL_BYTES - 1].max(axis=1) != 0).tolist()
    return [c[:, i:_CELL_BYTES - 1 + j] for c, i, j in zip(cells, start, stop)]


def _take_rows(cells: np.ndarray, index: np.ndarray, rows: slice) -> np.ndarray:
    """The cell matrix of ``rows``, gathered from the distinct values' ``cells``."""
    return np.take(cells, index[rows].astype(np.intp), axis=0)


def _grid_columns(outer: np.ndarray, inner: np.ndarray) -> tuple:
    """Gathered columns of the row-major product of two axes, ``outer``
    slowest."""
    i, j = (np.arange(a.size, dtype=np.min_scalar_type(a.size - 1)) for a in (outer, inner))
    return Gather(outer, np.repeat(i, inner.size)), Gather(inner, np.tile(j, outer.size))


def _text_cells(c: np.ndarray) -> np.ndarray:
    """Cell matrix of a column that is not float: a bool as ``true`` or
    ``false``, bytes (numpy ``S``) as they are, anything else as its ``str``,
    one byte per character.  Text must be ASCII; a NUL byte, as in numpy's
    own strings, is padding."""
    if c.dtype == bool:
        c = np.where(c, b"true", b"false")
    if c.dtype.kind == "S":
        cells = np.ascontiguousarray(c).view(np.uint8).reshape(len(c), c.itemsize)
    else:
        text = c.astype(str)
        cells = text.view(np.uint32).reshape(len(c), text.itemsize // 4)
    if cells.max(initial=0) > 127:
        raise ValueError("CSV text must be ASCII")
    return cells.astype(np.uint8, copy=False)


def _join_rows(cells: list) -> bytearray:
    """CSV lines of a slice from its columns' cell matrices, in column order:
    each cell's bytes other than NUL, then ``,`` or, after the last, a newline.

    The row matrix is a view of a ``bytearray``, so deleting its NUL bytes
    is the one copy of the slice's bytes.  It empties ``cells`` first, so
    that no cell matrix is alive during that copy.  ``translate`` costs
    0.5 to 0.8 ns per byte, whatever the NUL bytes' places; ``replace``
    finds them with ``memchr`` and copies the runs between them, about
    0.1 ns per byte and 13 ns per NUL.  So where at most 1/64 of the bytes
    of the first ``_NUL_PROBE_ROWS`` rows are NUL, as in ``propagate``'s
    slices (0.4 to 1.1 %), ``replace`` deletes them; denser slices, such as
    ``deco-grid``'s (6 %) and ``scan``'s (19 to 21 %) label padding, take
    ``translate``."""
    ends = np.cumsum([c.shape[1] + 1 for c in cells])
    buf = bytearray(len(cells[0]) * int(ends[-1]))
    chars = np.frombuffer(buf, np.uint8).reshape(len(cells[0]), ends[-1])
    for c, end in zip(cells, ends):
        chars[:, end - 1 - c.shape[1]:end - 1] = c
        chars[:, end - 1] = ord(",")
    del c
    cells.clear()
    chars[:, -1] = ord("\n")
    head = chars[:_NUL_PROBE_ROWS]
    if 64 * (head.size - np.count_nonzero(head)) <= head.size:
        return buf.replace(b"\0", b"")
    return buf.translate(None, b"\0")


#: Rows of a slice whose NUL share picks :func:`_join_rows`' way to delete them.
_NUL_PROBE_ROWS = 256


# ---------------------------------------------------------------------------
# float kernel: '%.14e' of float64 arrays in numpy, byte for byte
# ---------------------------------------------------------------------------
#
# A finite nonzero x with decimal exponent e = floor(log10 |x|) renders as
# its sign, the 15 digits of N = round(|x| 10^(14-e)) in [10^14, 10^15) with
# a point after the first, 'e', the sign of e and two or three digits of e.
# y = |x| 10^(14-e) is a double-double (Dekker's exact product of |x| and
# the double nearest the power, plus |x| times the power's low part), whose
# error core's tolerance block bounds far below the rounding of N.  A cell
# is the sign byte and a body of 21 bytes: d0 '.' d1-d6, then d7-d14, then
# the exponent text, NUL-padded; only a three-digit exponent fills byte 21.
# The cells are four little-endian words per value, the sign (or NUL) in
# the last byte of the first, which the cell starts at.  Each digit group of
# N is one uint32 lane of a word, looked up in a 40 KB table of four-digit
# texts (4 KB for the 'd.dd' group).

_SPLITTER = 2.0 ** 27 + 1  # Veltkamp: x = x1 + x2, each half of 26 bits
_E_MIN = -RENDER_EXP_MAX - 1  # the tables cover e in [_E_MIN, -_E_MIN]
_CELL_BYTES = 22
_MINUS_WORD = np.uint64(ord("-") << 56)


def _pow10_table() -> np.ndarray:
    """Rows hi, lo, hi1, hi2 over e: 10^(14-e) = hi + lo (+ below u^2 hi),
    each rounded from exact integers, and hi's Veltkamp halves."""
    rows = []
    for e in range(_E_MIN, 1 - _E_MIN):
        num, den = (10 ** (14 - e), 1) if e <= 14 else (1, 10 ** (e - 14))
        hi = num / den  # int / int is correctly rounded
        m, d = hi.as_integer_ratio()
        c = hi * _SPLITTER
        hi1 = c - (c - hi)
        rows.append((hi, (num * d - m * den) / (den * d), hi1, hi - hi1))
    return np.array(rows).T.copy()


def _words(data: list) -> np.ndarray:
    """Each bytes of ``data``, zero-padded to whole 8-byte words, as a row of
    native uint64 words read little-endian."""
    width = 8 * -(-max(map(len, data), default=0) // 8)
    buf = b"".join(b.ljust(width, b"\0") for b in data)
    return np.frombuffer(buf, "<u8").reshape(len(data), width // 8).astype(np.uint64)


def _digit_lanes() -> tuple:
    """The text of i as four digits, and of i/100 as 'd.dd' for i < 1000,
    as a little-endian uint32 lane."""
    digits = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    point = digits[0].reshape(-1, 4)[:, [1, 0, 2, 3]].copy()
    point[:, 1] = ord(".")
    return tuple(t.reshape(-1, 4).view("<u4")[:, 0].copy() for t in (digits, point))


_POW10 = _pow10_table()
_EXP_WORD = _words([b"e%+03d" % e for e in range(_E_MIN, 1 - _E_MIN)])[:, 0]
_FOUR_DIGITS, _POINT_DIGITS = _digit_lanes()
_SPECIAL_WORDS = _words([b"0.00000000000000e+00", b"inf", b"nan"])  # zero, infinity, nan


def _scaled(a: np.ndarray, row: np.ndarray):
    """a 10^(14-e) as the double-double p + lo, with row = e - _E_MIN.

    ``a`` is only read; every other array is the function's own and is
    updated in place."""
    p, lo, hi1, hi2 = (np.take(t, row) for t in _POW10)  # p is hi until scaled
    p *= a
    a1 = a * _SPLITTER
    a2 = a1 - a
    a1 -= a2
    np.subtract(a, a1, out=a2)
    # a hi - p, exactly: ((a1 hi1 - p) + a1 hi2 + a2 hi1) + a2 hi2
    err = a1 * hi1
    err -= p
    hi1 *= a2
    a2 *= hi2
    hi2 *= a1
    err += hi2
    err += hi1
    err += a2
    lo *= a
    lo += err
    return p, lo


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Cell matrix of ``'%.14e' % v`` for every float64 ``v`` of ``x``.

    Returns ``uint8`` bytes of shape ``x.shape + (22,)``: byte 0 is ``-``
    for a negative value, and bytes 1-21 the body; NUL pads both.  Zeros,
    infinities and nans take fixed texts.  A cell outside the kernel's
    domain (``core.RENDER_EXP_MAX``), or whose rounding is within
    ``core.RENDER_TIE_MARGIN`` of a tie, takes Python's text.

    ``x`` is only read.  The kernel works in place on arrays of its own
    (four of floats, one of exponent rows and the result's words), so it
    holds about 100 bytes per value at its peak, the result's 32 included.
    """
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(a)
    np.floor(e, out=e)
    other = ~(np.abs(e) <= RENDER_EXP_MAX)  # true at 0, inf and nan
    np.copyto(a, 1.0, where=other)
    e -= _E_MIN
    np.copyto(e, -_E_MIN, where=other)
    row = e.astype(np.intp)
    p, lo = _scaled(a, row)
    # next to a power of ten log10 can land one off: y must be in [1e14, 1e15)
    off = (p >= 1e15).view(np.int8) - (p < 1e14).view(np.int8)
    redo = np.flatnonzero(off)
    if redo.size:
        row[redo] += off[redo]
        p[redo], lo[redo] = _scaled(a[redo], row[redo])
    # p + lo = whole + q + frac: N = whole + q + (frac > 0.5)
    n = np.floor(p, out=e)
    p -= n
    p += lo
    q = np.floor(p, out=lo)
    frac = p
    frac -= q
    n += q
    n += frac > 0.5
    frac -= 0.5
    slow = np.flatnonzero(np.abs(frac, out=frac) <= RENDER_TIE_MARGIN)
    carry = n == 1e15  # 9.99...95 10^e rounds to 1.00...00 10^(e+1)
    row += carry
    n[carry] = 1e14
    words = np.empty((x.size, 4), "<u8")
    words[:, 3] = np.take(_EXP_WORD, row)

    # N, an integer below 2^53, in groups of 3, 4, 4 and 4 digits by integer
    # floor division in the spent arrays: whole takes a and keeps the last
    # group, the first three take lo, p and e.  Each group's text is one
    # uint32 lane of the words.
    whole = a.view(np.int64)
    np.copyto(whole, n, casting="unsafe")
    head, g0, g1 = (t.view(np.int64) for t in (lo, p, e))
    for g, scale in ((head, 10 ** 12), (g0, 10 ** 8), (g1, 10 ** 4)):
        np.floor_divide(whole, scale, out=g)
        whole -= g * scale
    lanes = words.view("<u4")
    lanes[:, 2] = _POINT_DIGITS[head]
    lanes[:, 3] = _FOUR_DIGITS[g0]
    lanes[:, 4] = _FOUR_DIGITS[g1]
    lanes[:, 5] = _FOUR_DIGITS[whole]

    negative = np.signbit(x)
    rest = np.flatnonzero(other)
    if rest.size:
        v = x[rest]
        special = (v == 0) | ~np.isfinite(v)
        kind = np.where(v[special] == 0, 0, np.where(np.isnan(v[special]), 2, 1))
        words[rest[special], 1:] = _SPECIAL_WORDS[kind]
        negative[rest[np.isnan(v)]] = False  # Python prints nan without a sign
        slow = np.concatenate([slow, rest[~special]])
    if slow.size:
        bodies = [("%.14e" % v).lstrip("-").encode() for v in x[slow].tolist()]
        words[slow, 1:] = _words(bodies)
    words[:, 0] = np.where(negative, _MINUS_WORD, 0)

    chars = words.view(np.uint8)[:, 8 - 1:8 - 1 + _CELL_BYTES]
    return chars.reshape(shape + (_CELL_BYTES,))


@contextmanager
def _sink(out_path):
    """A command's writer: it opens the file ``out_path``, or takes standard
    output, once, and sends each bytes it is given through :func:`_emit`.
    A command opens it after all its checks, so an exit 1 or 2 writes
    nothing, and an unwritable ``out_path`` is a :class:`ConfigError`.  A
    standard output that is a pipe is widened first (:func:`_widen_pipe`)."""
    if out_path:
        try:
            target = open(out_path, "wb")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.flush()  # text written to it before goes first
        fh = getattr(sys.stdout, "buffer", None)
        if fh is not None:
            _widen_pipe(fh)
        target = nullcontext(fh)
    with target as fh:
        # _emit looked up at each call, so that a rebound _emit is the one called
        yield lambda data: _emit(data, fh)


#: Capacity that :func:`_widen_pipe` gives a pipe: Linux's default
#: ``pipe-max-size``, which an unprivileged process may set.
_PIPE_BYTES = 1 << 20


def _widen_pipe(fh):
    """Grow the pipe behind the binary stream ``fh`` to ``_PIPE_BYTES``
    where it holds less, so that a render slice goes out in one piece while
    the reader drains it, instead of the writer waiting on the reader at
    every 64 KiB.  Linux only (``fcntl.F_SETPIPE_SZ``); it never shrinks a
    pipe, and it does nothing where ``fh`` has no file descriptor, the
    descriptor is no pipe (``F_GETPIPE_SZ`` fails), or the kernel refuses."""
    try:
        import fcntl  # not on Windows

        fd = fh.fileno()
        if fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) < _PIPE_BYTES:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        pass


def _emit(data, fh):
    """Write the bytes ``data``, the header or one render slice, to the
    binary stream ``fh``; to standard output as text where ``fh`` is None, a
    text stream without bytes underneath, such as ``io.StringIO``.  The
    pieces it writes are views of ``data``, so it holds no copy."""
    if fh is None:
        sys.stdout.write(data.decode())
        return
    # In pieces: a reader that closes the pipe mid-output must stop the
    # command with BrokenPipeError, which one write of a large buffer was
    # seen not to raise.
    view = memoryview(data)
    for start in range(0, len(view), 1 << 16):
        fh.write(view[start:start + (1 << 16)])


def _write_table(table: CsvTable, out_path) -> int:
    """Render ``table`` slice by slice into the command's sink; exit code 0."""
    with _sink(out_path) as write:
        table.render(write)
    return EXIT_OK


def _grid(cfg: RunConfig, args, section: str) -> dict:
    """A grid section's settings: a given flag wins, then the config, then SECTIONS."""
    values = cfg.grids.get(section, SECTIONS[section])
    return {key: value if getattr(args, key) is None else getattr(args, key)
            for key, value in values.items()}


def _linspace(lo: float, hi: float, steps, what: str) -> np.ndarray:
    steps = int(steps)
    if steps < 1:
        raise ConfigError(f"{what}: steps must be >= 1, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what}: min and max must be finite, got {lo!r} and {hi!r}")
    if hi < lo:
        raise ConfigError(f"{what}: max {hi!r} is below min {lo!r}")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{what}: max - min must be finite, got {lo!r} to {hi!r}")
    try:
        return np.linspace(float(lo), float(hi), steps)
    except (ValueError, MemoryError) as exc:  # more steps than numpy can hold
        raise ConfigError(f"{what}: cannot hold {steps} steps ({exc})") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig, args) -> int:
    thermal = cfg.require("thermal", "validate")
    env = gibbs_coefficients(cfg.oscillator, thermal)
    reports = [("single_mode (thermal coefficients)", validate_single_mode(env))]
    if cfg.two_mode_env is not None:
        reports.append(("two_mode (environment complete positivity)",
                        validate_two_mode(cfg.two_mode_env, cfg.oscillator.hbar)))
    lines = []
    for title, report in reports:
        lines += [title + ":"] + ["  " + line for line in report.lines()]
    with _sink(args.out) as write:
        write(("\n".join(lines) + "\n").encode())
    return EXIT_OK if all(report.passed for _, report in reports) else EXIT_INVALID


#: ``deco-grid``'s text of a C node that fails (0) or passes (1) validation.
_DECO_STATUS = np.array([b"invalid", b"ok"])


def cmd_deco_grid(cfg: RunConfig, args) -> int:
    initial = cfg.require("initial", "deco-grid")
    params = cfg.oscillator
    grid = _grid(cfg, args, "deco_grid")
    c_grid = _linspace(grid["c_min"], grid["c_max"], grid["c_steps"], "C grid")
    if args.asymptotic:
        t_grid = np.array([math.inf])
    else:
        t_grid = _linspace(grid["t_min"], grid["t_max"], grid["t_steps"], "t grid")

    ThermalParams(C=float(c_grid[0]))  # rejects a smallest C below 1
    # validate_single_mode's verdict, on all C nodes at once
    valid = one_mode_checks(*gibbs_diffusion(params, c_grid), 0.0, params.lam,
                            params.hbar)[1].all(axis=-1)
    if not (args.skip_invalid or valid.all()):
        print(f"invalid thermal coefficients at C={c_grid[~valid][0].item()!r} "
              "(rerun with --skip-invalid to keep going)", file=sys.stderr)
        return EXIT_INVALID

    # on the axes: t down, C across, only the valid C evaluated; row-major
    # nodes then run t outer, C inner
    sigma = np.full((t_grid.size, c_grid.size), math.nan)
    qd = np.full_like(sigma, math.nan)
    if valid.any():
        c_ok, t_col = c_grid[valid], t_grid[:, None]
        sigma_ok = single_mode.uncertainty_determinants(initial.delta, initial.r,
                                                        params, c_ok, t_col)
        sigma[:, valid] = sigma_ok
        qd[:, valid] = single_mode.degrees_from_uncertainty(sigma_ok, params, c_ok, t_col)
        del sigma_ok  # rendering is the peak of memory
    columns = dict(zip(("t", "C"), _grid_columns(t_grid, c_grid)),
                   sigma_det=sigma.ravel(), delta_qd=qd.ravel())
    if args.skip_invalid:
        columns["status"] = Gather(_DECO_STATUS, np.tile(valid.view(np.uint8), t_grid.size))
    table = CsvTable(columns)
    table.add_columns(*columns.values())
    return _write_table(table, args.out)


def cmd_density(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    thermal = cfg.require("thermal", "density")
    grid = _grid(cfg, args, "density")
    if not math.isfinite(grid["t"]):  # only a flag can hold it; the config rejects it
        raise ConfigError(f"'density.t' must be a finite number, got {grid['t']!r}")
    if grid["n"] < 2:
        raise ConfigError(f"density grid needs n >= 2, got {grid['n']}")
    x_grid = _linspace(grid["x_min"], grid["x_max"], grid["n"], "x grid")

    # on the axes: x down, x' across; row-major nodes run x outer, x' inner
    x, xp = x_grid[:, None], x_grid
    table = CsvTable(["x", "xp", "re", "im"])
    if args.stationary:
        value = single_mode.stationary_density_matrix_element(params, thermal, x, xp).ravel()
        table.add_columns(*_grid_columns(x_grid, x_grid), value,
                          Gather(np.zeros(1), np.zeros(value.size, np.uint8)))
    else:
        initial = cfg.require("initial", "density")
        env = gibbs_coefficients(params, thermal)
        state0 = correlated_coherent_state(initial.delta, initial.r, params,
                                           x0=initial.x0, p0=initial.p0)
        state = single_mode.propagate_moments(state0, env, params, grid["t"])
        value = single_mode.density_matrix_element(state, x, xp).ravel()
        table.add_columns(*_grid_columns(x_grid, x_grid), value.real, value.imag)
    return _write_table(table, args.out)


def cmd_timescales(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    thermal = cfg.require("thermal", "timescales")
    initial = cfg.require("initial", "timescales")
    delta, r = initial.delta, initial.r

    table = CsvTable(["name", "value"])
    table.add("t_deco_general",
              single_mode.decoherence_time(delta, r, params, thermal, "general"))
    if r == 0.0:
        table.add("t_deco_r0",
                  single_mode.decoherence_time(delta, r, params, thermal, "r0"))
    if thermal.C == 1.0:
        table.add("t_deco_zero_temperature",
                  single_mode.decoherence_time(delta, r, params, thermal,
                                               "zero_temperature"))
    table.add("t_deco_high_temperature",
              single_mode.decoherence_time(delta, r, params, thermal,
                                           "high_temperature"))
    table.add("t_thermal_fluctuation",
              single_mode.thermal_fluctuation_time(delta, r, params, thermal))
    table.add("t_relaxation", single_mode.relaxation_time(params))
    return _write_table(table, args.out)


def _warn_env_validity(env, params):
    report = validate_two_mode(env, params.hbar)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        print(f"warning: environment fails positivity checks ({names}); "
              "results describe the formal dynamics", file=sys.stderr)


def cmd_asymptotic(cfg: RunConfig, args) -> int:
    env = cfg.require("two_mode_env", "asymptotic")
    params = model_params(cfg.oscillator, env)
    _warn_env_validity(env, params)
    s_inf = steady_covariance_closed_form(env, params)
    resid = lyapunov.residual(drift_matrix(params), s_inf, diffusion_matrix(env))
    full = simon_verdicts(s_inf)
    det_c, det_c_size = cross_block_route(env, params)

    # The closed form takes det C where the criterion takes -|det C|: unless
    # det C is resolved positive, the two routes to S must agree within the
    # sum of their rounding bounds, where the environment is in its family.
    closed_score = None
    if not_negative(-det_c, det_c_size):
        try:
            closed_score, closed_bound = closed_form_route(env, params)
        except InvalidEnvironmentError:
            pass
    if closed_score is not None and abs(closed_score - full.score) > closed_bound + full.bound:
        raise ParameterError("closed-form and full separability scores disagree: "
                             f"{closed_score!r} vs {full.score!r}")

    table = CsvTable(["name", "value"])
    for name, value in zip(COV_ENTRIES, _cov_entries(*covariance_blocks(s_inf))):
        table.add(name, float(value))
    table.add("det_cross_block", det_c)
    table.add("simon_score", full.score)
    if closed_score is not None:
        table.add("simon_score_closed_form", closed_score)
    table.add("separable", full.verdict)
    table.add("lyapunov_residual", resid)
    return _write_table(table, args.out)


def cmd_propagate(cfg: RunConfig, args) -> int:
    initial = cfg.require("initial", "propagate")
    env = cfg.require("two_mode_env", "propagate")
    params = model_params(cfg.oscillator, env)
    _warn_env_validity(env, params)
    grid = _grid(cfg, args, "propagate")
    t_grid = _linspace(0.0, grid["t_max"], grid["steps"], "t grid")
    state1 = correlated_coherent_state(initial.delta, initial.r, params,
                                       x0=initial.x0, p0=initial.p0)
    one = (state1.sxx, state1.sxp, state1.sxp, state1.spp)
    a, b, c = propagate_entries(one, one, (0.0,) * 4, env, params, t_grid)

    table = CsvTable(["t", *COV_ENTRIES, "simon_score"])
    table.add_columns(t_grid, *_cov_entries(a, b, c), entry_invariants(a, b, c, which="score"))
    return _write_table(table, args.out)


#: ``scan``'s text of a node's verdict (false, true, boundary) and status code.
_SEPARABLE_LABELS = np.array([b"false", b"true", b"boundary"])
_STATUS_LABELS = np.array(SCAN_STATUSES, dtype="S")


def cmd_scan(cfg: RunConfig, args) -> int:
    env = cfg.require("two_mode_env", "scan")
    params = model_params(cfg.oscillator, env)
    grid = _grid(cfg, args, "scan")
    dxx_grid = _linspace(env.Dxx if grid["dxx_min"] is None else grid["dxx_min"],
                         env.Dxx if grid["dxx_max"] is None else grid["dxx_max"],
                         grid["dxx_steps"], "Dxx grid")
    dxpy_grid = _linspace(grid["dxpy_min"], grid["dxpy_max"], grid["dxpy_steps"],
                          "Dxpy grid")
    scan = scan_separability(env, params, dxx_grid, dxpy_grid)
    verdicts = np.where(scan.boundary, np.uint8(2), scan.separable.view(np.uint8))
    # without a window (Dxy != 0) every in_window cell is empty
    in_window = (Gather(np.array([b""]), np.zeros(scan.score.size, np.uint8))
                 if scan.in_window is None
                 else Gather(_SEPARABLE_LABELS[:2], scan.in_window.view(np.uint8)))
    table = CsvTable(["Dxx", "Dxpy", "S", "separable", "in_window", "status"])
    table.add_columns(*_grid_columns(dxx_grid, dxpy_grid), scan.score,
                      Gather(_SEPARABLE_LABELS, verdicts), in_window,
                      Gather(_STATUS_LABELS, scan.status))
    return _write_table(table, args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lindosc",
                     description="Gaussian dynamics of damped quantum oscillators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, grid=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="write the output here instead of stdout")
        # one flag per key of the command's config grid section: t_min is --t-min
        for key, default in SECTIONS.get(grid, {}).items():
            p.add_argument("--" + key.replace("_", "-"),
                           type=int if isinstance(default, int) else float,
                           help=f"overrides {grid}.{key}"
                           + ("" if default is None else f" (default {default})"))
        return p

    add("validate", "check parameter validity, exit 2 on failure")
    p = add("deco-grid", "decoherence degree over a (t, C) grid", "deco_grid")
    p.add_argument("--asymptotic", action="store_true",
                   help="emit the infinite-time values instead of the t grid")
    p.add_argument("--skip-invalid", action="store_true",
                   help="mark C nodes failing validation instead of aborting")
    p = add("density", "density matrix on an (x, x') grid", "density")
    p.add_argument("--stationary", action="store_true",
                   help="emit the infinite-time thermal state instead")
    add("timescales", "characteristic time scales")
    add("asymptotic", "asymptotic two-mode covariance and separability")
    add("propagate", "two-mode covariance trajectory", "propagate")
    add("scan", "separability scan over (Dxx, Dxpy)", "scan")
    return parser


#: Built once per process; each call parses into a fresh namespace.
PARSER = build_parser()


#: glibc's mallopt parameters and the values that :func:`_pin_heap` fixes.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_PIN = {_M_TRIM_THRESHOLD: 64 << 20, _M_MMAP_THRESHOLD: 16 << 20}
_heap_pinned = None


def _pin_heap() -> bool:
    """Fix glibc's mmap and trim thresholds, once per process; whether they
    are fixed.  Left dynamic, glibc raises them after a large block is freed,
    and its later choices then follow the heap's layout: a command's slice
    buffers could be returned to the kernel and faulted in again on every
    call.  Pinned, a block below 16 MiB comes from the heap, and free memory
    at its top is kept up to 64 MiB; the heap's free memory at this point,
    what the imports left, is returned to the kernel once instead.
    Elsewhere than glibc it does nothing."""
    global _heap_pinned
    if _heap_pinned is not None:
        return _heap_pinned
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):  # no such name: not glibc
        _heap_pinned = False
        return False
    import ctypes  # numpy has imported it already

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = ctypes.c_int, ctypes.c_int
    _heap_pinned = all([libc.mallopt(k, v) == 1 for k, v in _HEAP_PIN.items()])
    libc.malloc_trim(ctypes.c_size_t(0))
    return _heap_pinned


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A library warning as the commands print it: one line on stderr,
    without the source path and line number."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    _pin_heap()
    args = PARSER.parse_args(argv)
    # every warning that the filters in force let through prints as a line
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            cfg = load_config(args.config)
            # looked up at call time, so that a rebound cmd_* is the one called
            return globals()["cmd_" + args.command.replace("-", "_")](cfg, args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except LindoscError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`lindosc ... | head`).  Python flushes
        # stdout once more at exit; pointing it at devnull keeps that quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
