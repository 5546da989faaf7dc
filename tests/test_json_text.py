"""The JSON writer (`report.json_text`, behind `emit_report` and `d0res
oracle`) against `json.dumps(indent=2)`: the same text on every value a
report can hold, TypeError on anything else, and no run of the command
line reaches the standard library's pure-Python encoder."""

import json
import json.encoder
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d0res.cli import main
from d0res.report import emit_report, json_text

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
DATA = Path(__file__).resolve().parent / "data"

TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                          " ", "é", "\U0001d11e", "-3/2", ""])
STRINGS = st.one_of(st.text(), TRICKY, st.lists(TRICKY).map("".join))
SCALARS = st.one_of(STRINGS, st.none(), st.booleans(),
                    st.integers(), st.integers(-2**200, 2**200))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(STRINGS, max_size=5),
                            st.dictionaries(STRINGS, inner, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example(["a", {"b": [1, None, True]}, "c", [], {}])
def test_json_text_is_json_dumps_with_indent(value):
    assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


def test_every_snapshot_is_written_back_byte_for_byte():
    paths = sorted(CORPUS.glob("golden/*.json")) + sorted(DATA.glob("*.json"))
    assert len(paths) >= 20
    for path in paths:
        blob = path.read_bytes()
        assert emit_report(json.loads(blob), "json") == blob, path.name


@pytest.mark.parametrize("bad", [1.0, 0.0, (1, 2), {1: "x"}, object()],
                         ids=["float", "zero-float", "tuple", "int-key", "object"])
def test_what_a_report_cannot_hold_is_refused(bad):
    """1.0 == True and hash(0.0) == hash(False), so a lookup by equality
    would print them as booleans; the writer refuses them, nested too."""
    for value in (bad, [bad], ["s", bad], {"a": [1, {"b": bad}]}):
        with pytest.raises(TypeError):
            json_text(value)


def test_the_oracle_prints_what_json_dumps_prints(capsys):
    for path in sorted(CORPUS.glob("*.json")):
        main(["oracle", str(path)])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", path.name


def test_no_command_reaches_the_pure_python_encoder(monkeypatch, capsysbinary):
    """`json.dumps` with an indent builds its encoder with
    `json.encoder._make_iterencode`; with that raising, the corpus, an
    analysis in each format and an oracle run exit as they do without."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    assert main(["corpus", str(CORPUS)]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    requests = [line for line in lines if not line.startswith("aggregate:")]
    assert len(requests) == len(list(CORPUS.glob("*.json")))
    assert all(line.endswith(" golden=ok") for line in requests)
    cusp = str(CORPUS / "cusp.json")
    assert main(["analyze", cusp]) == 0
    assert capsysbinary.readouterr().out == (CORPUS / "golden" / "cusp.json").read_bytes()
    assert main(["analyze", cusp, "--format", "text"]) == 0
    assert capsysbinary.readouterr().out.startswith(b"d0res report")
    assert main(["oracle", cusp]) == 0
    assert json.loads(capsysbinary.readouterr().out)["pass"] is True
