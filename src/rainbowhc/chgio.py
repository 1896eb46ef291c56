"""Reader/writer for the .chg colored-hypergraph text format.

Lines starting with '#' are comments and may appear anywhere.  The first data
line is ``n k r`` optionally followed by the token ``multi``.  Every further
data line is k strictly increasing vertex ids followed by one color id, all
1-based and whitespace separated.  A k-set may repeat with a different color
only in multi mode; repeating a (k-set, color) pair is always a parse error.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Sequence, TextIO, Union

from .core import ColoredHypergraph, kset_count
from .errors import InvalidInput

PathOrFile = Union[str, Path, TextIO]


def read_chg(source: PathOrFile) -> ColoredHypergraph:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _parse(fh)
    return _parse(source)


def _parse(fh: TextIO) -> ColoredHypergraph:
    header = None
    n = k = r = 0
    multi = False
    pairs: dict[tuple[int, ...], set[int]] = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
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
            header = (n, k, r)
            continue
        if len(tokens) != k + 1:
            raise InvalidInput(
                f"line {lineno}: expected {k} vertices and a color, got {len(tokens)} fields"
            )
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: non-integer field") from exc
        vertices, color = values[:-1], values[-1]
        if any(b <= a for a, b in zip(vertices, vertices[1:])):
            raise InvalidInput(f"line {lineno}: vertices must be strictly increasing")
        edge = tuple(vertices)
        colors = pairs.setdefault(edge, set())
        if color in colors:
            raise InvalidInput(f"line {lineno}: repeated (edge, color) pair")
        if colors and not multi:
            raise InvalidInput(
                f"line {lineno}: duplicate edge {edge} needs the 'multi' header token"
            )
        colors.add(color)
    if header is None:
        raise InvalidInput("no header line found")
    return ColoredHypergraph(n, k, r, pairs, multi_color=multi)


def write_chg(
    H: ColoredHypergraph,
    target: PathOrFile,
    header_comments: Sequence[str] = (),
) -> None:
    """Write H; ``header_comments`` become leading '#' lines (metadata)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _emit(H, fh, header_comments)
    else:
        _emit(H, target, header_comments)


def _emit(H: ColoredHypergraph, fh: TextIO, header_comments: Sequence[str]) -> None:
    for comment in header_comments:
        fh.write(f"# {comment}\n")
    tail = " multi" if H.multi_color else ""
    fh.write(f"{H.n} {H.k} {H.r}{tail}\n")
    for edge, colors in H.items():  # lex order, i.e. sorted
        for color in sorted(colors):
            fh.write(" ".join(str(v) for v in edge) + f" {color}\n")


def dumps_chg(H: ColoredHypergraph, header_comments: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    _emit(H, buf, header_comments)
    return buf.getvalue()
