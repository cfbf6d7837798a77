"""Motivation-emotion-action graph extraction from natural-language reviews."""

from __future__ import annotations

from pathlib import Path

__version__ = "0.1.0"


class InputFileError(Exception):
    """A malformed input file, located by path and 1-based line (0: the whole file)."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def read_text(path: str | Path, error: type[InputFileError]) -> str:
    """Decode a UTF-8 file; raise `error` at the line of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number the lines as splitlines() does, with U+FFFD standing in for the bad byte.
        bad_line = len((data[: exc.start].decode("utf-8") + "\ufffd").splitlines())
        raise error(str(path), bad_line, "not valid UTF-8") from None


def split_fields(line: str, count: int, path: str | Path, line_no: int, error: type[InputFileError]) -> list[str]:
    """Split a line on tabs; raise `error` unless it has exactly `count` fields."""
    fields = line.split("\t")
    if len(fields) != count:
        raise error(str(path), line_no, f"expected {count} tab-separated fields, got {len(fields)}")
    return fields
