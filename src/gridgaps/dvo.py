"""The .dvo text format for digital objects.

Line 1 (after any leading comments/blanks): ``dvo <n>``. Every following
significant line holds one voxel center as n space-separated integers
within +-2**59. Integers are ASCII decimal, optional sign; one of more
than 20 significant digits is out of range. Lines starting
with ``#`` and blank lines are ignored anywhere. Each center is checked by
:func:`gridgaps.cells.voxel`; duplicate voxels and out-of-range centers are
parse errors, reported with their line number and the center as written.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

from .cells import Cell, voxel
from .objects import DigitalObject

_INTEGER = re.compile(r"[+-]?[0-9]+")
#: more digits, past a sign and leading zeros, than any coordinate or
#: dimension in range has; such a token is out of range, and ``int()`` is
#: never asked to parse it (it refuses strings past
#: ``sys.int_info.default_max_str_digits``)
_MAX_DIGITS = 20


class DvoError(ValueError):
    """Malformed .dvo input; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _integer(token: str) -> int:
    """An ASCII decimal integer. ``ValueError`` if the token is not one;
    ``OverflowError`` naming it shortened if it has too many digits."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(token)
    if len(token) > _MAX_DIGITS:
        sign = token[0] if token[0] in "+-" else ""
        digits = token.lstrip("+-").lstrip("0") or "0"
        if len(digits) > _MAX_DIGITS:
            raise OverflowError(f"{sign}{digits[:_MAX_DIGITS]}... ({len(digits)} digits)")
        token = sign + digits
    return int(token)


def _significant(chunks: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line not blank or a comment.

    Each chunk (a file's line, or a whole text) is split as by ``str.splitlines``,
    which breaks at more characters (``\x0c``, ``\x85`` ...) than a file does.
    """
    lines = (line for chunk in chunks for line in chunk.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _header(lines: Iterator[tuple[int, str]]) -> int:
    """Read the ``dvo <n>`` header off the first significant line; n >= 1."""
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] != "dvo":
            raise DvoError(lineno, f"expected header 'dvo <n>', got {line!r}")
        try:
            n = _integer(tokens[1])
        except OverflowError as err:
            if tokens[1].startswith("-"):
                raise DvoError(lineno, f"dimension must be >= 1, got {err}") from None
            raise DvoError(lineno, f"dimension {err} is too large") from None
        except ValueError:
            raise DvoError(lineno, f"dimension {tokens[1]!r} is not an integer") from None
        if n < 1:
            raise DvoError(lineno, f"dimension must be >= 1, got {n}")
        return n
    raise DvoError(1, "missing 'dvo <n>' header")


def _parse(chunks: Iterable[str], check_n: Callable[[int], None] | None) -> DigitalObject:
    lines = _significant(chunks)
    n = _header(lines)
    if check_n is not None:
        check_n(n)
    seen: dict[Cell, int] = {}  # voxel -> line, in file order
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != n:
            raise DvoError(lineno, f"expected {n} coordinates, got {len(tokens)}")
        try:
            center = tuple(map(_integer, tokens))
        except OverflowError as err:
            raise DvoError(
                lineno, f"center coordinate {err} outside the +-2**59 range"
            ) from None
        except ValueError:
            raise DvoError(lineno, f"non-integer coordinate in {line!r}") from None
        try:
            v = voxel(center)
        except ValueError as err:
            raise DvoError(lineno, str(err)) from None
        if v in seen:
            raise DvoError(lineno, f"duplicate voxel {center} (first on line {seen[v]})")
        seen[v] = lineno
    return DigitalObject(n, seen)


def loads(text: str, check_n: Callable[[int], None] | None = None) -> DigitalObject:
    """Parse .dvo text into an object.

    ``check_n``, when given, is called with the header's dimension before
    any voxel line is parsed, so a caller can refuse the input there.
    """
    return _parse((text,), check_n)


def load(path: str, check_n: Callable[[int], None] | None = None) -> DigitalObject:
    """Parse a .dvo file line by line; ``check_n`` as in :func:`loads`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh, check_n)


def dumps(obj: DigitalObject, comments: list[str] | None = None) -> str:
    """Serialize an object; voxels sorted, so output is canonical."""
    lines = [f"dvo {obj.n}"]
    for comment in comments or []:
        lines.append(f"# {comment}")
    for center in obj.centers():
        lines.append(" ".join(str(x) for x in center))
    return "\n".join(lines) + "\n"


def dump(obj: DigitalObject, path: str, comments: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj, comments))
