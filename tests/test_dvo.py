"""The .dvo object file format: parsing, writing, error line numbers."""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridgaps import DigitalObject, dvo, voxel
from gridgaps.dvo import DvoError, dumps, load, loads
from references import counted_reads


class TestParse:
    def test_minimal(self):
        obj = loads("dvo 3\n0 0 0\n1 1 0\n")
        assert obj.n == 3
        assert obj.centers() == [(0, 0, 0), (1, 1, 0)]

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\ndvo 2\n# body comment\n0 0\n\n1 1\n"
        assert loads(text).centers() == [(0, 0), (1, 1)]

    def test_header_only_is_empty_object(self):
        obj = loads("dvo 4\n")
        assert obj.n == 4 and len(obj) == 0

    def test_negative_coordinates(self):
        assert loads("dvo 2\n-3 7\n").centers() == [(-3, 7)]

    def test_missing_header(self):
        with pytest.raises(DvoError) as err:
            loads("0 0 0\n")
        assert err.value.lineno == 1

    def test_empty_input(self):
        with pytest.raises(DvoError):
            loads("")

    def test_bad_dimension(self):
        with pytest.raises(DvoError):
            loads("dvo zero\n")
        with pytest.raises(DvoError):
            loads("dvo 0\n")

    def test_wrong_token_count_cites_line(self):
        with pytest.raises(DvoError) as err:
            loads("dvo 3\n1 2\n")
        assert err.value.lineno == 2
        assert "line 2" in str(err.value)

    def test_non_integer_coordinate(self):
        with pytest.raises(DvoError) as err:
            loads("dvo 2\n0 0\n1 x\n")
        assert err.value.lineno == 3

    def test_duplicate_voxel_cites_both_lines(self):
        with pytest.raises(DvoError) as err:
            loads("dvo 2\n0 0\n1 1\n0 0\n")
        assert err.value.lineno == 4
        assert "line 2" in str(err.value)

    def test_out_of_range_center_cites_line_and_written_value(self):
        big = (1 << 59) + 1
        with pytest.raises(DvoError) as err:
            loads(f"dvo 2\n0 0\n{big} 3\n")
        assert err.value.lineno == 3
        assert str(big) in str(err.value)
        assert str(2 * big) not in str(err.value)
        with pytest.raises(DvoError) as err:
            loads(f"dvo 2\n# note\n0 {-big}\n")
        assert err.value.lineno == 3 and str(-big) in str(err.value)

    def test_centers_at_the_range_ends_load(self):
        edge = 1 << 59
        obj = loads(f"dvo 2\n{edge} {-edge}\n")
        assert obj.centers() == [(edge, -edge)]

    @pytest.mark.parametrize(
        "token", ["1_0", "\u0663", "1_152_921_504_606_846_977", "0x1", "+-1", "\uff11"]
    )
    def test_only_ascii_decimal_coordinates(self, token):
        with pytest.raises(DvoError) as err:
            loads(f"dvo 2\n10 0\n{token} 0\n")
        assert err.value.lineno == 3
        assert str(err.value) == f"line 3: non-integer coordinate in {token + ' 0'!r}"

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+\u0662"])
    def test_only_ascii_decimal_dimension(self, token):
        with pytest.raises(DvoError) as err:
            loads(f"# header next\ndvo {token}\n0 0\n")
        assert str(err.value) == f"line 2: dimension {token!r} is not an integer"

    def test_signed_ascii_integers_load(self):
        assert loads("dvo +2\n+3 -007\n").centers() == [(3, -7)]

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_integer_past_the_int_digit_limit_is_out_of_range(self, sign):
        # int() refuses strings of more than 4,300 digits; such a token is an
        # integer far outside +-2**59, named shortened, never the whole line
        token = sign + "12345678901234567890" + "7" * 4281
        with pytest.raises(DvoError) as err:
            loads(f"dvo 2\n0 0\n5 {token}\n")
        assert err.value.lineno == 3
        assert str(err.value) == (
            f"line 3: center coordinate {sign}12345678901234567890..."
            " (4301 digits) outside the +-2**59 range"
        )

    def test_leading_zeros_do_not_count_as_digits(self):
        assert loads("dvo 0002\n" + "0" * 5000 + "3 -" + "0" * 5000 + "\n").centers() == [
            (3, 0)
        ]

    def test_dimension_past_the_int_digit_limit(self):
        digits = "9" * 4400
        with pytest.raises(DvoError) as err:
            loads(f"# big\ndvo {digits}\n")
        assert str(err.value) == f"line 2: dimension {digits[:20]}... (4400 digits) is too large"
        with pytest.raises(DvoError) as err:
            loads(f"dvo -{digits}\n")
        assert str(err.value) == (
            f"line 1: dimension must be >= 1, got -{digits[:20]}... (4400 digits)"
        )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "centers, n",
        [
            ([], 3),
            ([(0, 0)], 2),
            ([(0, 0, 0), (1, 1, 0), (-2, 5, 9)], 3),
            ([(k, 0, 0, 0) for k in range(6)], 4),
        ],
    )
    def test_parse_write_parse(self, centers, n):
        obj = DigitalObject.from_centers(n, centers)
        assert loads(dumps(obj)) == obj

    def test_dumps_is_sorted_and_stable(self):
        a = DigitalObject.from_centers(2, [(1, 1), (0, 0)])
        b = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
        assert dumps(a) == dumps(b) == "dvo 2\n0 0\n1 1\n"

    def test_comments_survive_round_trip(self):
        obj = DigitalObject.from_centers(2, [(0, 0)])
        text = dumps(obj, comments=["provenance note"])
        assert "# provenance note" in text
        assert loads(text) == obj

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "obj.dvo"
        path.write_text("dvo 2\n0 1\n", encoding="utf-8")
        assert load(str(path)).centers() == [(0, 1)]


#: every line break of ``str.splitlines``; a text file's iteration breaks
#: only at the first three
BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
LINES = ["dvo 2", "dvo 3", "0 0", "1 1", "-2 7", "0 0 0", "x 1", "# c", "", "  "]
PIECES = st.tuples(st.sampled_from(LINES), st.sampled_from(BREAKS))


@pytest.mark.parametrize("brk", BREAKS)
def test_comment_lines_round_trip(brk):
    # each line of a comment is written as a comment line of its own, so
    # the text after a break is not read back as a voxel
    obj = DigitalObject.from_centers(2, [(0, 0)])
    text = dumps(obj, comments=[f"made by x{brk}5 5"])
    assert text == "dvo 2\n# made by x\n# 5 5\n0 0\n"
    assert loads(text) == obj


def _parsed(parse, source):
    """The object, or the error's message and line number."""
    try:
        return parse(source)
    except DvoError as err:
        return str(err), err.lineno


class TestLoadMatchesLoads:
    """``load(path)`` streams the file; it must read it as ``loads`` reads the text."""

    def check(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        assert _parsed(load, str(path)) == _parsed(loads, text)

    @pytest.mark.parametrize("brk", BREAKS)
    @pytest.mark.parametrize(
        "lines",
        [
            ["# head", "", "dvo 2", "0 0", "", "1 1"],
            ["", "dvo 2", "0 0", "0 0"],  # duplicate: both line numbers
            ["dvo 2", "0 0", "1", "1 1"],  # wrong count on line 3
            ["", "", ""],  # no header
        ],
    )
    def test_each_line_break(self, tmp_path, lines, brk):
        text = brk.join(lines)
        self.check(tmp_path / "obj.dvo", text)
        self.check(tmp_path / "obj.dvo", text + brk)

    def test_break_inside_a_line_splits_it(self, tmp_path):
        # one file line holding "0 0\x0c1 1" is two voxel lines, as in loads
        self.check(tmp_path / "obj.dvo", "dvo 2\n0 0\x0c1 1\n1 1\n")
        assert _parsed(loads, "dvo 2\n0 0\x0c1 1\n1 1\n") == (
            "line 4: duplicate voxel (1, 1) (first on line 3)", 4
        )

    @settings(
        max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(PIECES, max_size=8))
    def test_mixed_breaks(self, tmp_path, pieces):
        self.check(tmp_path / "obj.dvo", "".join(line + brk for line, brk in pieces))

    def test_refused_header_stops_reading(self, tmp_path, monkeypatch):
        # a refused header ends the read: the file is read no further than
        # the first buffer, and the byte that is not UTF-8 far past it is
        # never decoded
        path = tmp_path / "big.dvo"
        path.write_bytes(b"dvo 9\n" + b"0 0 0 0 0 0 0 0 0\n" * 10_000 + b"\xff\n")
        _, bytes_read = counted_reads(monkeypatch)

        class Refused(Exception):
            pass

        def refuse(n, k):
            raise Refused(n, k)

        with pytest.raises(UnicodeDecodeError):
            path.read_text(encoding="utf-8")
        with pytest.raises(Refused) as refused:
            load(str(path), check=refuse)
        assert refused.value.args == (9, 0)
        assert len(bytes_read) == 1 and 0 < bytes_read[0] <= 64 * 1024
        assert path.stat().st_size > 128 * 1024

    def test_check_is_called_before_each_voxel_line(self, tmp_path):
        path = tmp_path / "obj.dvo"
        path.write_text("# c\ndvo 2\n0 0\n\n# c\n1 1\n2 2\n", encoding="utf-8")
        calls = []
        load(str(path), check=lambda n, k: calls.append((n, k)))
        assert calls == [(2, 0), (2, 1), (2, 2), (2, 3)]

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "obj.dvo"
        path.write_bytes(b"\xef\xbb\xbfdvo 2\n0 0\n1 1\n")
        assert load(str(path)) == loads("dvo 2\n0 0\n1 1\n")
        assert loads("\ufeffdvo 2\n0 0\n1 1\n") == loads("dvo 2\n0 0\n1 1\n")

    @pytest.mark.parametrize("mark", ["", "\ufeff", "\ufeff\ufeff"], ids=["none", "one", "two"])
    @pytest.mark.parametrize(
        "text",
        ["dvo 2\n0 0\n1 1\n", "# c\ndvo 2\n0 0\n", "dvo 2\n0 0\n\ufeff1 1\n", "", "\n"],
        ids=["plain", "comment-first", "mark-inside", "empty", "blank"],
    )
    def test_byte_order_mark_reads_as_in_loads(self, tmp_path, mark, text):
        # the same bytes, read from a file and as text, with no mark, a
        # leading one (dropped) or two (the second is an error on line 1)
        self.check(tmp_path / "obj.dvo", mark + text)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"dvo 2\n\xef\xbb\xbf0 0\n", "line 2: non-integer coordinate in '\\ufeff0 0'"),
            (b"# c\n\xef\xbb\xbfdvo 2\n", "line 2: expected header 'dvo <n>', got '\\ufeffdvo 2'"),
            (b"\xef\xbb\xbf\xef\xbb\xbfdvo 2\n", "line 1: expected header 'dvo <n>', got '\\ufeffdvo 2'"),
        ],
        ids=["voxel-line", "after-a-comment", "second-mark"],
    )
    def test_byte_order_mark_past_the_start_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "obj.dvo"
        path.write_bytes(data)
        with pytest.raises(DvoError) as err:
            load(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "data, lineno, byte",
        [
            (b"dvo 2\n0 0\n1 \xff\n", 3, 0xFF),
            (b"dvo 2\n" + b"".join(b"%d 0\n" % k for k in range(5000)) + b"1 \xff\n", 5002, 0xFF),
            (b"dvo\xfe 2\n", 1, 0xFE),
            (b"dvo 2\n# caf\xc3\xa9\n# caf\xe9\n", 3, 0xE9),  # UTF-8, then Latin-1
            (b"dvo 2\r0 0\r1 1\x0c2 \xc3\r", 4, 0xC3),  # lines as loads splits them
            (b"dvo 2\n0 0\n1 \xed\xa0\x80\n", 3, 0xED),  # an encoded surrogate
        ],
        ids=["line-3", "past-5000-lines", "header", "comment", "form-feed", "surrogate"],
    )
    def test_non_utf8_byte_names_its_line(self, tmp_path, data, lineno, byte):
        path = tmp_path / "bad.dvo"
        path.write_bytes(data)
        with pytest.raises(DvoError) as err:
            load(str(path))
        assert err.value.lineno == lineno
        assert str(err.value) == f"line {lineno}: byte 0x{byte:02x} is not UTF-8"


B = dvo._BLOCK
#: a body pattern that matches no block, so every block takes the per-token route
NO_BLOCK = re.compile("(?!)")


def _routes(parse, source):
    """Run ``parse(source, check)`` by the block route and by the per-token
    route alone, and assert both give the same object, or the same error
    message and line number, after the same check calls; return the block
    route's result and the number of blocks it parsed whole."""
    runs = []
    for clean in (dvo._clean, lambda n: NO_BLOCK):
        calls, whole = [], []
        real = dvo._whole
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dvo, "_clean", clean)
            mp.setattr(dvo, "_whole", lambda *args: whole.append(1) or real(*args))
            result = _parsed(lambda s: parse(s, lambda n, k: calls.append((n, k))), source)
        runs.append((result, calls, len(whole)))
    (result, calls, whole), (by_token, token_calls, none) = runs
    assert none == 0
    assert result == by_token and calls == token_calls
    return result, whole


def _both(tmp_path, text):
    """The routes of ``load`` on text's bytes and of ``loads`` on text agree,
    and ``load`` reads the file as ``loads`` reads the text; the result and
    the blocks ``load`` parsed whole."""
    path = tmp_path / "obj.dvo"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    loaded, whole = _routes(load, str(path))
    assert _routes(lambda s, check: loads(s), text)[0] == loaded
    return loaded, whole


def _voxel_lines(count):
    return [f"{k} {-k} {-2 * k}" for k in range(count)]


def _text(body, n=3, end="\n"):
    return "".join(line + end for line in [f"dvo {n}", *body])


#: a token of a clean line, written as the block pattern takes it
CLEAN = st.one_of(
    st.integers(-9, 9).map(str),
    st.integers(0, 9).map("+{}".format),
    st.integers(-(1 << 59), 1 << 59).map(str),
    st.sampled_from(["00000000000000000007", "-00000000000000000000", str(1 << 59), str(-(1 << 59))]),
)
#: a token the block pattern refuses, or one that is out of range
BAD = st.sampled_from(
    [
        "1_0", "\u0663", "\uff11", "0x1", "+-1", "x", "",
        "000000000000000000007",  # 21 digits, in range past its zeros
        "100000000000000000000",  # 21 significant digits
        str((1 << 59) + 1), str(-(1 << 59) - 1),
    ]
)


class TestBlockRoute:
    """The block route gives what the per-token route gives: the object, or
    the same error on the same line, after the same check calls."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(st.lists(CLEAN, min_size=n - 1, max_size=n - 1), min_size=1, max_size=5)
        ),
        st.one_of(st.integers(0, 2 * B + 2), st.sampled_from([B - 1, B, B + 1])),
        st.sampled_from(["{}", "+{}", "-{}", "000{}"]),
    )
    def test_clean_bodies(self, tmp_path, tails, lines, first):
        # line k starts with k, so its center is new
        body = [" ".join([first.format(k), *tails[k % len(tails)]]) for k in range(lines)]
        n = len(tails[0]) + 1
        loaded, whole = _both(tmp_path, _text(body, n))
        assert loaded == DigitalObject.from_centers(n, (map(int, line.split()) for line in body))
        assert whole == -(-lines // B)

    @pytest.mark.parametrize("head", [[], ["# a note"]], ids=["whole-blocks", "a-block-line-by-line"])
    def test_object_is_the_checked_object(self, head):
        # the parse skips the per-voxel check of DigitalObject(n, voxels),
        # so on either route it must give the object that check gives
        body = _voxel_lines(2 * B + 1)
        obj = loads(_text(head + body))
        checked = DigitalObject(3, (voxel(map(int, line.split())) for line in body))
        assert (obj, hash(obj)) == (checked, hash(checked))
        assert type(obj.voxels) is frozenset

    @pytest.mark.parametrize("lines", [B - 1, B, B + 1, 2 * B, 2 * B + 1])
    def test_block_sizes(self, tmp_path, lines):
        loaded, whole = _both(tmp_path, _text(_voxel_lines(lines)))
        assert len(loaded) == lines and whole == -(-lines // B)

    @pytest.mark.parametrize(
        "edit, lineno",
        [
            (lambda body: body.__setitem__(B, "1_0 0 0"), B + 2),  # first in a block
            (lambda body: body.__setitem__(B - 1, "1 2"), B + 1),  # last in a block
            (lambda body: body.__setitem__(B + 3, body[2]), B + 5),  # first copy a block before
            (lambda body: body.__setitem__(5, body[3]), 7),
            (lambda body: body.__setitem__(B + 2, f"{(1 << 59) + 1} 0 0"), B + 4),
            (lambda body: body.__setitem__(2 * B, "1 0 100000000000000000000"), 2 * B + 2),
            (lambda body: body.__setitem__(0, "0 \u0663 0"), 2),
            (lambda body: body.__setitem__(B + 1, "0 0 \udcff"), B + 3),  # a byte not UTF-8
            # a form feed makes raw line 5 two lines, so the bad one is a line later
            (lambda body: body.__setitem__(slice(3, B + 3, B - 1), ["5 5 5\x0c6 6 6", "x 0 0"]), B + 5),
        ],
        ids=[
            "bad-first-in-block", "bad-last-in-block", "duplicate-across-blocks",
            "duplicate-in-block", "out-of-range", "21-digits", "non-ascii-digit", "not-utf8",
            "after-a-form-feed",
        ],
    )
    def test_errors_keep_their_line(self, tmp_path, edit, lineno):
        body = _voxel_lines(2 * B + 1)
        edit(body)
        error, _ = _both(tmp_path, _text(body))
        assert error[1] == lineno

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: body.insert(B + 5, "# a comment"),
            lambda body: body.insert(7, ""),
            lambda body: body.__setitem__(B, "00000000000000000000003 0 0"),
            lambda body: body.__setitem__(B - 1, " 9 9  9 "),
            lambda body: body.__setitem__(3, "5 5 5\x0c6 6 6"),  # two lines in one
        ],
        ids=["comment", "blank", "21-digits-in-range", "spaces", "form-feed"],
    )
    def test_other_lines_take_the_per_token_route(self, tmp_path, edit):
        body = _voxel_lines(2 * B + 1)
        edit(body)
        loaded, whole = _both(tmp_path, _text(body))
        assert isinstance(loaded, DigitalObject) and whole == 2

    @pytest.mark.parametrize("n, whole", [(1 << 16, 1), ((1 << 16) + 1, 0)])
    def test_wide_bodies(self, tmp_path, n, whole):
        body = [" ".join([str(k)] + ["0"] * (n - 1)) for k in range(2)]
        loaded, blocks = _both(tmp_path, _text(body, n))
        assert len(loaded) == 2 and blocks == whole

    @pytest.mark.parametrize("n", [5_000_000_000, 10**20 - 1])
    def test_dimension_past_any_pattern(self, tmp_path, n):
        # past 2**32 - 2 a pattern's repeat count is refused by re
        assert _both(tmp_path, _text(["0 0"], n)) == ((f"line 2: expected {n} coordinates, got 2", 2), 0)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_carriage_returns(self, tmp_path, end):
        # a file reads either end as "\n", so its blocks are clean; loads
        # sees the "\r" and takes the per-token route
        text = _text(_voxel_lines(B + 1), end=end)
        path = tmp_path / "obj.dvo"
        path.write_bytes(text.encode())
        (loaded, whole), (read, none) = _routes(load, str(path)), _routes(
            lambda s, check: loads(s), text
        )
        assert loaded == read and len(loaded) == B + 1
        assert (whole, none) == (2, 0)

    def test_missing_final_newline(self, tmp_path):
        text = _text(_voxel_lines(2 * B + 1)).removesuffix("\n")
        loaded, whole = _both(tmp_path, text)
        assert len(loaded) == 2 * B + 1 and whole == 2

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 2 * B + 1), st.sampled_from([0, B - 1, B, B + 1, 2 * B - 1, 2 * B])),
                st.one_of(
                    st.lists(st.one_of(CLEAN, BAD), min_size=2, max_size=4).map(" ".join),
                    st.sampled_from(["# c", "", "  ", "0 0 0", "1 -1 -2", "0 0 0\r"]),
                ),
            ),
            max_size=4,
        ),
        st.booleans(),
    )
    def test_mixed_bodies(self, tmp_path, edits, final_newline):
        body = _voxel_lines(2 * B + 2)
        for at, line in edits:
            body[at] = line
        text = _text(body)
        _both(tmp_path, text if final_newline else text.removesuffix("\n"))
