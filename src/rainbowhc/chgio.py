"""Reader/writer for the .chg colored-hypergraph text format.

Lines starting with '#' are comments and may appear anywhere.  The first data
line is ``n k r`` optionally followed by the token ``multi``.  Every further
data line is k strictly increasing vertex ids followed by one color id, all
1-based and whitespace separated.  An error in that form names the line;
ColoredHypergraph.from_pairs owns the edges, and its errors name the k-set.
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from itertools import takewhile
from pathlib import Path
from typing import Iterator, Sequence, TextIO, Union

from .core import ColoredHypergraph, kset_count
from .errors import InvalidInput

PathOrFile = Union[str, Path, TextIO]


def _opened(source: PathOrFile, mode: str = "r"):
    """A context holding a text file: a path is opened, a file is used as is."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8")
    return nullcontext(source)


def read_chg(source: PathOrFile) -> ColoredHypergraph:
    with _opened(source) as fh:
        return _parse(fh)


def _parse(fh: TextIO) -> ColoredHypergraph:
    lines = (
        (lineno, line.split())
        for lineno, raw in enumerate(fh, start=1)
        if (line := raw.strip()) and not line.startswith("#")
    )
    lineno, tokens = next(lines, (0, []))
    if not tokens:
        raise InvalidInput("no header line found")
    multi = tokens[-1] == "multi"
    if multi:
        tokens = tokens[:-1]
    if len(tokens) != 3:
        raise InvalidInput(f"line {lineno}: header must be 'n k r [multi]'")
    try:
        n, k, r = (int(t) for t in tokens)
    except ValueError as exc:
        raise InvalidInput(f"line {lineno}: non-integer header field") from exc
    kset_count(n, k)  # refuse an oversized header before reading edges
    return ColoredHypergraph.from_pairs(n, k, r, _pairs(lines, k), multi_color=multi)


def _pairs(lines: Iterator[tuple[int, list[str]]], k: int) -> Iterator[tuple[list[int], int]]:
    """The (vertices, color) pair of each edge line, in file order."""
    for lineno, tokens in lines:
        if len(tokens) != k + 1:
            raise InvalidInput(
                f"line {lineno}: expected {k} vertices and a color, got {len(tokens)} fields"
            )
        try:
            *vertices, color = (int(t) for t in tokens)
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: non-integer field") from exc
        if any(b <= a for a, b in zip(vertices, vertices[1:])):
            raise InvalidInput(f"line {lineno}: vertices must be strictly increasing")
        yield vertices, color


def leading_comments(source: PathOrFile) -> list[str]:
    """The comments above the header line, as write_chg was given them: each
    loses its '#' and one space after it, the inverse of _emit."""
    with _opened(source) as fh:
        lines = (raw.rstrip("\n").lstrip() for raw in fh)
        head = takewhile(lambda line: not line or line.startswith("#"), lines)
        return [line[1:].removeprefix(" ") for line in head if line]


def write_chg(
    H: ColoredHypergraph,
    target: PathOrFile,
    header_comments: Sequence[str] = (),
) -> None:
    """Write H; ``header_comments`` become leading '#' lines (metadata)."""
    with _opened(target, "w") as fh:
        _emit(H, fh, header_comments)


def _emit(H: ColoredHypergraph, fh: TextIO, header_comments: Sequence[str]) -> None:
    if any("\n" in comment or "\r" in comment for comment in header_comments):
        raise InvalidInput("a header comment must be one line")
    fh.writelines(f"# {comment}\n" for comment in header_comments)
    tail = " multi" if H.multi_color else ""
    fh.write(f"{H.n} {H.k} {H.r}{tail}\n")
    for edge, colors in H.items():  # lex order, i.e. sorted
        for color in sorted(colors):
            fh.write(" ".join(str(v) for v in edge) + f" {color}\n")


def dumps_chg(H: ColoredHypergraph, header_comments: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    _emit(H, buf, header_comments)
    return buf.getvalue()
