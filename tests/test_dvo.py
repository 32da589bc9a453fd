"""The .dvo object file format: parsing, writing, error line numbers."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridgaps import DigitalObject, dvo
from gridgaps.dvo import DvoError, dumps, load, loads


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
        bytes_read = []

        class Counted:
            """An open file that records, as it closes, how many bytes were read."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __iter__(self):
                return iter(self.fh)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                bytes_read.append(self.fh.buffer.tell())
                self.fh.close()

        monkeypatch.setattr(
            dvo, "open", lambda *args, **kw: Counted(open(*args, **kw)), raising=False
        )

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
