"""Line-oriented text output shared by the CSV writers."""

from __future__ import annotations


def is_path(target) -> bool:
    """True for a file-system path, False for an open file object."""
    return isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")


def write_lines(target, lines) -> None:
    """Write newline-terminated lines to a path (replacing it) or open file."""
    text = "\n".join(lines) + "\n"
    if is_path(target):
        with open(target, "w") as fh:
            fh.write(text)
    else:
        target.write(text)
