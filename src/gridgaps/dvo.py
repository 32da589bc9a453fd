"""The .dvo text format for digital objects.

Line 1 (after any leading comments/blanks): ``dvo <n>``. Every following
significant line holds one voxel center as n space-separated signed
integers within +-2**59. Lines starting with ``#`` and blank lines are
ignored anywhere. Duplicate voxels and out-of-range centers are parse
errors, reported with their line number.
"""

from __future__ import annotations

from .cells import COORD_LIMIT
from .objects import DigitalObject

#: voxel centers are doubled into cell coordinates, which stay within +-2**60
CENTER_LIMIT = COORD_LIMIT // 2


class DvoError(ValueError):
    """Malformed .dvo input; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def loads(text: str) -> DigitalObject:
    """Parse .dvo text into an object."""
    n: int | None = None
    centers: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0] != "dvo":
                raise DvoError(lineno, f"expected header 'dvo <n>', got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise DvoError(lineno, f"dimension {tokens[1]!r} is not an integer") from None
            if n < 1:
                raise DvoError(lineno, f"dimension must be >= 1, got {n}")
            continue
        tokens = line.split()
        if len(tokens) != n:
            raise DvoError(lineno, f"expected {n} coordinates, got {len(tokens)}")
        try:
            center = tuple(int(t) for t in tokens)
        except ValueError:
            raise DvoError(lineno, f"non-integer coordinate in {line!r}") from None
        for x in center:
            if not -CENTER_LIMIT <= x <= CENTER_LIMIT:
                raise DvoError(lineno, f"center coordinate {x} outside the +-2**59 range")
        if center in seen:
            raise DvoError(lineno, f"duplicate voxel {center} (first on line {seen[center]})")
        seen[center] = lineno
        centers.append(center)
    if n is None:
        raise DvoError(1, "missing 'dvo <n>' header")
    return DigitalObject.from_centers(n, centers)


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
