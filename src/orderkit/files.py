"""Line-oriented poset files and DOT export.

Grammar: an optional ``poset <name>`` line, one ``elements: <label ...>``
line, then ``cover <x> <y>`` lines (x covered by y, strictly).  ``#`` starts
a comment, blank lines are ignored.  Emitted files list elements in
canonical order, so parse(emit(P)) is isomorphic to P and identical when P
is already canonically ordered.
"""

from __future__ import annotations

from .errors import InputError, ParseError, UnknownLabelError
from .poset import FinitePoset, build_poset

# a backslash would escape the closing quote of a DOT id
_DOT_FORBIDDEN = '#"\\'


def parse(text: str) -> FinitePoset:
    name = ""
    labels = None
    covers = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "poset":
            if len(parts) != 2:
                raise ParseError("poset line takes exactly one name", lineno)
            if name:
                raise ParseError("duplicate poset line", lineno)
            name = parts[1]
        elif parts[0] == "elements:":
            if labels is not None:
                raise ParseError("duplicate elements line", lineno)
            labels = parts[1:]
            known = set(labels)
            if len(known) != len(labels):
                raise ParseError("element labels must be distinct", lineno)
        elif parts[0] == "cover":
            if len(parts) != 3:
                raise ParseError("cover line takes exactly two labels", lineno)
            if labels is None:
                raise ParseError("cover line before elements line", lineno)
            x, y = parts[1], parts[2]
            if x == y:
                raise ParseError("covers are strict, reflexive cover rejected", lineno)
            for lab in (x, y):
                if lab not in known:
                    raise UnknownLabelError(lab, line=lineno)
            covers.append((x, y))
        else:
            raise ParseError(f"unrecognized directive {parts[0]!r}", lineno)
    if labels is None:
        raise ParseError("missing elements line", 1)
    return build_poset(labels, covers, name=name)


def _printable(label, forbidden='#"'):
    # scans in C: no Python step per character of the label
    return bool(label) and not any(map(str.isspace, label)) and all(
        c not in label for c in forbidden)


def emit(P: FinitePoset) -> str:
    """Serialize in canonical element order with cover lines only."""
    for lab in P.labels:
        if not _printable(lab):
            raise InputError(f"label {lab!r} cannot be written to a poset file")
    C = P.canonical_form()
    lines = []
    if C.name and _printable(C.name):
        lines.append(f"poset {C.name}")
    lines.append(("elements: " + " ".join(C.labels)).rstrip())
    for i, j in C.hasse():
        lines.append(f"cover {C.labels[i]} {C.labels[j]}")
    return "\n".join(lines) + "\n"


def export_dot(P: FinitePoset) -> str:
    """Hasse diagram as a DOT digraph, edges from lower cover to upper,
    nodes in canonical order, one edge per line."""
    for lab in P.labels:
        if not _printable(lab, _DOT_FORBIDDEN):
            raise InputError(f"label {lab!r} cannot be written to a DOT file")
    C = P.canonical_form()
    graph_name = C.name if C.name and _printable(C.name, _DOT_FORBIDDEN) else "poset"
    lines = [f'digraph "{graph_name}" {{', "  rankdir=BT;"]
    for lab in C.labels:
        lines.append(f'  "{lab}";')
    for i, j in C.hasse():
        lines.append(f'  "{C.labels[i]}" -> "{C.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
