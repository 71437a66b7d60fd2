import sys

import pytest

from orderkit import CycleError, ParseError, UnknownLabelError, files
from orderkit.errors import InputError
from orderkit.files import emit, export_dot, parse
from orderkit.generators import named
from orderkit.poset import FinitePoset


def test_parse_two_chain():
    P = parse("elements: a b\ncover a b\n")
    assert P.n == 2 and P.leq(0, 1)


def test_parse_reflexive_cover_rejected():
    with pytest.raises(ParseError):
        parse("elements: a\ncover a a\n")


def test_parse_comments_and_blanks():
    P = parse("# header\n\npose" "t two\nelements: x y  # inline\ncover x y\n")
    assert P.name == "two" and P.leq(0, 1)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("cover a b\n")
    with pytest.raises(ParseError):
        parse("elements: a\nelements: b\n")
    with pytest.raises(ParseError):
        parse("elements: a a\n")
    with pytest.raises(ParseError):
        parse("elements: a\nfrobnicate a\n")
    with pytest.raises(UnknownLabelError) as err:
        parse("elements: a b\ncover a z\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(CycleError):
        parse("elements: a b\ncover a b\ncover b a\n")


def test_parse_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("elements: a b\ncover a\n")
    assert err.value.line == 2


def test_emit_reparse_m3(m3):
    text = emit(m3)
    again = parse(text)
    assert again.is_isomorphic(m3)
    assert parse(emit(again)) == again  # canonical emit is a fixed point


def test_roundtrip_enumerated(posets_upto_5):
    for n, batch in posets_upto_5.items():
        for P in batch:
            assert parse(emit(P)).is_isomorphic(P)


def test_emit_canonical_is_identity(posets_upto_5):
    for P in posets_upto_5[4]:
        # enumerated posets are canonical already, so parse(emit(P)) == P
        assert parse(emit(P)) == P


def test_empty_poset_roundtrip():
    from orderkit.poset import FinitePoset

    empty = FinitePoset((), ())
    assert parse(emit(empty)) == empty


def test_emit_rejects_bad_labels():
    from orderkit.poset import FinitePoset

    P = FinitePoset(("a b",), (1,))
    with pytest.raises(ValueError):
        emit(P)


def test_printable_matches_the_per_character_rule():
    # the rule _printable scans in C, one character at a time
    def printable(label, forbidden):
        return bool(label) and not any(c.isspace() or c in forbidden for c in label)

    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert "\u3000" in spaces and len(spaces) >= 29  # 29 on Python 3.11
    labels = ["", "a", "{a,b}", "\u00e9", "#", '"', "\\", "a#b", 'x"', "p\\q", "{a,b}#"]
    for c in spaces:
        labels += [c, f"a{c}b", f"{c}#", f'"{c}']
    for writer, forbidden in ((emit, '#"'), (export_dot, files._DOT_FORBIDDEN)):
        for label in labels:
            want = printable(label, forbidden)
            assert bool(files._printable(label, forbidden)) == want, (label, forbidden)
            P = FinitePoset((label,), (1,))
            if want:
                assert label in writer(P)
            else:
                with pytest.raises(InputError):
                    writer(P)
    assert files._printable("a\\b") and not files._printable("a\\b", files._DOT_FORBIDDEN)


def test_export_dot_chain2():
    got = export_dot(named("chain(2)"))
    assert got == (
        'digraph "chain(2)" {\n'
        "  rankdir=BT;\n"
        '  "0";\n'
        '  "1";\n'
        '  "0" -> "1";\n'
        "}\n"
    )


def test_export_dot_antichain_has_no_edges():
    got = export_dot(named("antichain(2)"))
    assert "->" not in got


def test_export_dot_m3_edges(m3):
    got = export_dot(m3)
    assert got.count("->") == 6
