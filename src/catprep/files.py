"""Output files replaced whole: a failed or repeated write never truncates one."""

import contextlib
from pathlib import Path


@contextlib.contextmanager
def replacing(path):
    """A temporary text file next to path, renamed onto path once the block ends
    without an error and removed on an error, so the previous file stays. path is
    unlinked before the rename: ext4 (auto_da_alloc) flushes the new data when a
    rename replaces a file or a file is truncated, which slows rewrites severalfold."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        path.unlink(missing_ok=True)
        tmp.rename(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, head: str, row_format: str, n_rows: int, fields) -> None:
    """Replace path with CSV text built by one % operation on fields: head (whole
    lines, which may hold fields too), then row_format, one row such as "%.17g,%s",
    n_rows times. Lines end in CRLF, as csv.writer ends them, but nothing is quoted:
    no field may hold a comma, a quote or a line break."""
    text = (head + (row_format + "\r\n") * n_rows) % tuple(fields)
    with replacing(path) as fh:
        fh.write(text)
