"""The .dvo text format for digital objects.

Line 1 (after any leading comments/blanks): ``dvo <n>``. Every following
significant line holds one voxel center as n space-separated integers
within +-2**59. Integers are ASCII decimal, optional sign. Lines starting
with ``#`` and blank lines are ignored anywhere. Each center is checked by
:func:`gridgaps.cells.voxel`; duplicate voxels and out-of-range centers are
parse errors, reported with their line number and the center as written.
"""

from __future__ import annotations

import re

from .cells import Cell, voxel
from .objects import DigitalObject

_INTEGER = re.compile(r"[+-]?[0-9]+")


class DvoError(ValueError):
    """Malformed .dvo input; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _integer(token: str) -> int:
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(token)
    return int(token)


def loads(text: str) -> DigitalObject:
    """Parse .dvo text into an object."""
    n: int | None = None
    seen: dict[Cell, int] = {}  # voxel -> line, in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0] != "dvo":
                raise DvoError(lineno, f"expected header 'dvo <n>', got {line!r}")
            try:
                n = _integer(tokens[1])
            except ValueError:
                raise DvoError(lineno, f"dimension {tokens[1]!r} is not an integer") from None
            if n < 1:
                raise DvoError(lineno, f"dimension must be >= 1, got {n}")
            continue
        tokens = line.split()
        if len(tokens) != n:
            raise DvoError(lineno, f"expected {n} coordinates, got {len(tokens)}")
        try:
            center = tuple(map(_integer, tokens))
        except ValueError:
            raise DvoError(lineno, f"non-integer coordinate in {line!r}") from None
        try:
            v = voxel(center)
        except ValueError as err:
            raise DvoError(lineno, str(err)) from None
        if v in seen:
            raise DvoError(lineno, f"duplicate voxel {center} (first on line {seen[v]})")
        seen[v] = lineno
    if n is None:
        raise DvoError(1, "missing 'dvo <n>' header")
    return DigitalObject(n, seen)


def load(path: str) -> DigitalObject:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


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
