import io

import pytest

from rainbowhc import ColoredHypergraph, InvalidInput, read_chg, write_chg
from rainbowhc.chgio import dumps_chg, leading_comments


def test_round_trip_single(tmp_path):
    H = ColoredHypergraph.from_pairs(
        6, 3, 4, [((1, 2, 3), 2), ((2, 4, 6), 4), ((1, 5, 6), 1)]
    )
    path = tmp_path / "h.chg"
    write_chg(H, path, ["generator=test", "seed=1"])
    back = read_chg(path)
    assert back == H
    text = path.read_text()
    assert text.startswith("# generator=test\n# seed=1\n6 3 4\n")


def test_round_trip_multi():
    H = ColoredHypergraph(
        5, 3, 3, {(1, 2, 3): {1, 3}, (2, 3, 4): {2}}, multi_color=True
    )
    assert read_chg(io.StringIO(dumps_chg(H))) == H


def test_comments_and_blank_lines_anywhere():
    text = "# leading\n\n4 3 2\n# interior\n1 2 3 1\n\n2 3 4 2\n# trailing\n"
    H = read_chg(io.StringIO(text))
    assert H.edge_count == 2
    assert H.colors_of((1, 2, 3)) == frozenset({1})


@pytest.mark.parametrize(
    "text",
    [
        "",                                   # no header
        "4 3\n",                              # short header
        "4 3 x\n",                            # non-integer header
        "4 3 2\n1 2 3\n",                     # missing color field
        "4 3 2\n3 2 1 1\n",                   # vertices not increasing
        "4 3 2\n1 2 3 1\n1 2 3 1\n",          # repeated (edge, color) pair
        "4 3 2\n1 2 3 1\n1 2 3 2\n",          # repeated edge without multi
        "4 3 2 multi\n1 2 3 1\n1 2 3 1\n",    # repeated pair even in multi
        "4 3 1\n1 2 3 2\n",                   # color out of range
    ],
)
def test_parse_errors(text):
    with pytest.raises(InvalidInput):
        read_chg(io.StringIO(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 3\n", "line 1: header"),
        ("# c\n4 3 2\n\n1 2 x 1\n", "line 4: non-integer"),
        ("4 3 2\n1 2 3 1\n3 2 1 1\n", "line 3: vertices"),
        # a line's form names the line; an edge's content names its k-set
        ("4 3 2\n1 2 3 1\n1 2 3 1\n", r"\(1, 2, 3\) color 1"),
        ("4 3 2\n1 2 3 1\n1 2 3 2\n", r"edge \(1, 2, 3\) carries 2 colors"),
        ("4 3 1\n1 2 4 2\n", r"edge \(1, 2, 4\) has a color outside"),
        ("4 3 2\n1 2 5 1\n", r"edge \(1, 2, 5\) leaves the vertex range"),
    ],
)
def test_parse_errors_name_the_line_or_the_kset(text, message):
    with pytest.raises(InvalidInput, match=message):
        read_chg(io.StringIO(text))


@pytest.mark.parametrize(
    "comments", [["#5 run", "  two  spaces ", "", "#", "generator=test"], []]
)
def test_leading_comments_read_back_what_write_chg_wrote(comments):
    H = ColoredHypergraph.from_pairs(4, 3, 2, [((1, 2, 3), 1)])
    buf = io.StringIO()
    write_chg(H, buf, comments)
    # a comment after the header line is not a header comment
    buf.write("# trailing\n")
    buf.seek(0)
    assert leading_comments(buf) == comments


def test_write_chg_refuses_a_comment_of_two_lines():
    H = ColoredHypergraph.from_pairs(4, 3, 2, [((1, 2, 3), 1)])
    for comment in ("a\nb", "a\r"):
        buf = io.StringIO()
        with pytest.raises(InvalidInput, match="one line"):
            write_chg(H, buf, ["ok", comment])
        assert buf.getvalue() == ""


def test_multi_needs_token():
    text = "4 3 2 multi\n1 2 3 1\n1 2 3 2\n"
    H = read_chg(io.StringIO(text))
    assert H.multi_color
    assert H.colors_of((1, 2, 3)) == frozenset({1, 2})
