"""The .dvo text format for digital objects.

Line 1 (after any leading comments/blanks): ``dvo <n>``. Every following
significant line holds one voxel center as n space-separated integers
within +-2**59. Integers are ASCII decimal, optional sign; one of more
than 20 significant digits is out of range. Lines starting
with ``#`` and blank lines are ignored anywhere. Each center is checked by
:func:`gridgaps.cells.voxel`; duplicate voxels and out-of-range centers are
parse errors, reported with their line number and the center as written.
A file is UTF-8: a byte that is not is a parse error naming its line and
the byte. A byte-order mark at the start of a file or text is dropped; one
anywhere else is an error on its line, as any other stray character is.

The body is read in blocks of ``_BLOCK`` raw lines. A block whose every line
is n integers of at most 20 digits, single-space separated and ended by
``\n``, all centers in range and no voxel seen before, is parsed whole; any
other block (a comment, a blank, a ``\r``, a missing final newline, a bad
token, an out-of-range center or a duplicate) is parsed line by line, which
is the one place an error is raised. Either way the caller's ``check`` is
called before each voxel line's voxel is added.
"""

from __future__ import annotations

import re
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator

from .cells import CENTER_LIMIT, Cell, _mk, voxel
from .objects import DigitalObject

_INTEGER = re.compile(r"[+-]?[0-9]+")
#: more digits, past a sign and leading zeros, than any coordinate or
#: dimension in range has; such a token is out of range, and ``int()`` is
#: never asked to parse it (it refuses strings past
#: ``sys.int_info.default_max_str_digits``)
_MAX_DIGITS = 20
#: a byte that is not UTF-8, as ``errors="surrogateescape"`` decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
#: raw lines per block of the body: 64 and 128 load alike, and a larger
#: block holds more in memory at once
_BLOCK = 128


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


def _significant(lines: Iterable[str], lineno: int) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line not blank or a comment,
    numbered on from ``lineno``.

    The lines are a text's split as by ``str.splitlines``, which breaks at
    more characters (``\x0c``, ``\x85`` ...) than a file does.
    """
    for lineno, raw in enumerate(lines, start=lineno + 1):
        if not raw.isascii() and (bad := _ESCAPED_BYTE.search(raw)):
            raise DvoError(lineno, f"byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8")
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _header(lineno: int, line: str) -> int:
    """The n >= 1 of a ``dvo <n>`` header line."""
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


def _clean(n: int) -> re.Pattern[str]:
    """Lines of n ASCII decimal tokens of at most ``_MAX_DIGITS`` digits,
    single-space separated, each ended by ``\n``. Past n = 2**16 (``re``
    repeats a group at most 2**32 - 2 times) it matches nothing."""
    token = f"[+-]?[0-9]{{1,{_MAX_DIGITS}}}"
    return re.compile(f"(?:{token}(?: {token}){{{n - 1}}}\n)+" if n <= 1 << 16 else "(?!)")


def _whole(text: str, n: int, lineno: int, count: int) -> dict[Cell, int] | None:
    """The voxels of a clean block's ``count`` lines, numbered on from
    ``lineno``; None if a center is out of range or a voxel is repeated."""
    d = [2 * x for x in map(int, text.split())]
    if min(d) < -2 * CENTER_LIMIT or max(d) > 2 * CENTER_LIMIT:
        return None
    cells = map(_mk, repeat(Cell), zip(*[iter(d)] * n))
    new = dict(zip(cells, range(lineno + 1, lineno + count + 1)))
    return new if len(new) == count else None


def _by_token(
    lines: Iterable[tuple[int, str]],
    n: int,
    seen: dict[Cell, int],
    check: Callable[[int, int], None] | None,
) -> None:
    """Add the voxel of each significant line to ``seen``, or raise the
    ``DvoError`` naming the first bad line."""
    for lineno, line in lines:
        if check is not None:
            check(n, len(seen) + 1)
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


def _parse(
    chunks: Iterable[str], check: Callable[[int, int], None] | None = None
) -> DigitalObject:
    """The object of raw lines (a file's lines, or a text's split with their
    ends kept): the header line by line, then the body a block at a time."""
    chunks = iter(chunks)
    lineno = 0
    for chunk in chunks:
        pieces = chunk.splitlines()
        lines = _significant(pieces, lineno)
        lineno += len(pieces)
        if first := next(lines, None):
            break
    else:
        raise DvoError(1, "missing 'dvo <n>' header")
    n = _header(*first)
    if check is not None:
        check(n, 0)
    seen: dict[Cell, int] = {}  # voxel -> line, in file order
    _by_token(lines, n, seen, check)
    clean = _clean(n)
    while block := list(islice(chunks, _BLOCK)):
        text = "".join(block)
        new = clean.fullmatch(text) and _whole(text, n, lineno, len(block))
        # seen.keys(), not seen: isdisjoint walks a dict argument whole
        if new and new.keys().isdisjoint(seen.keys()):
            if check is not None:
                for k in range(len(seen) + 1, len(seen) + len(new) + 1):
                    check(n, k)
            seen.update(new)
        else:
            block = text.splitlines()  # "\x0c" or "\r" can split a raw line
            _by_token(_significant(block, lineno), n, seen, check)
        lineno += len(block)
    # each voxel is checked as cells.voxel checks it, so not again
    return DigitalObject._of(n, frozenset(seen))


def loads(text: str) -> DigitalObject:
    """Parse .dvo text into an object. A byte-order mark at the start of
    the text is dropped, as :func:`load` drops one at the start of a file."""
    return _parse(text.removeprefix("\ufeff").splitlines(keepends=True))


def load(path: str, check: Callable[[int, int], None] | None = None) -> DigitalObject:
    """Parse a .dvo file as :func:`loads` parses its text, streaming it.

    The header is read line by line, the body in blocks of ``_BLOCK`` lines:
    a block of clean voxel lines (see the module docstring) is parsed whole,
    any other line by line. ``check``, when given, is called as
    ``check(n, 0)`` with the header's dimension n before any body line is
    read, then as ``check(n, k)`` before the k-th voxel line's voxel is
    added, so a caller can refuse the input at the header or while it
    streams; a refusal at voxel k reads no further than the end of k's block.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return _parse(fh, check)


def dumps(obj: DigitalObject, comments: list[str] | None = None) -> str:
    """Serialize an object; voxels sorted, so output is canonical."""
    lines = [f"dvo {obj.n}"]
    for comment in comments or []:
        lines += (f"# {line}" for line in comment.splitlines() or [""])
    for center in obj.centers():
        lines.append(" ".join(str(x) for x in center))
    return "\n".join(lines) + "\n"


def dump(obj: DigitalObject, path: str, comments: list[str] | None = None) -> None:
    """Write :func:`dumps`'s text to ``path``, built before the file is opened."""
    text = dumps(obj, comments)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
