"""Fuzzing `d0res analyze -` with arbitrary JSON values and near-valid
request shapes.

Every input must either be analysed (exit 0, or 3 for a root outside the
one supported field extension) or be refused with exit 2 and
`input error: <field path>: ...` on stderr; no exception may leave `main`.
Integer leaves include 10^9 and 2^31 beside small ones.  Neither makes an
accepted request expensive: a rank's report prints each padded member's
jet power by its runs, whatever the rank, and the parser refuses a term
above the truncation ceiling, as it refuses such a truncation.  Integers
past Python's digit limit go to the truncation.
"""

import contextlib
import copy
import io
import json
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from d0res.cli import main

_PATH = re.compile(r"(\$|-|[A-Za-z_]\w*(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*)")

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([10 ** 9, 2 ** 31]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["1", "-1", "0", "1/2", "-7/3", "1/0", "a", "1+a", "2*a",
                     "a^2", "x", "t", " 1", "1e3", "0x10", "--1", "1//2"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(
            ["curve", "implicit", "branches", "poly", "point", "ranks",
             "truncation", "format", "field", "generator", "minpoly", "x",
             "y", "z", "w", "rank", ""]) | st.text(max_size=4),
            inner, max_size=4),
    ),
    max_leaves=12,
)

SKELETONS = (
    {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[3, 0], "-1"]]}}},
    {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "-1"],
                                     [[3, 0], "-1"]]}},
     "point": ["0", "0"], "ranks": [1, 2], "truncation": 8,
     "format": "text"},
    {"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]}]},
     "ranks": [2]},
    {"curve": {"branches": [{"x": [[1, "1"]], "y": [[0, "0"]],
                             "z": [[0, "0"]]},
                            {"x": [[0, "0"]], "y": [[1, "1"]],
                             "z": [[0, "0"]]}]}},
    {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "a"]]}},
     "field": {"generator": "a", "minpoly": ["1", "0", "1"]}},
)


def _paths(value, prefix=()):
    """Every path into `value`: the value itself, each key and each item."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _set(value, path, new):
    if not path:
        return new
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return value


def _drop(value, path):
    if not path:
        return value
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return value


@st.composite
def near_valid_requests(draw):
    """A valid request with one to three edits at random paths: a value
    replaced by any JSON value, a key or item dropped, a key added, an
    item appended or a value wrapped in a list."""
    request = copy.deepcopy(draw(st.sampled_from(SKELETONS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(request))))
        edit = draw(st.sampled_from(["replace", "drop", "add", "append",
                                     "wrap"]))
        target = request
        for step in path:
            target = target[step]
        if edit == "replace":
            request = _set(request, path, draw(JSON_VALUES))
        elif edit == "drop":
            request = _drop(request, path)
        elif edit == "add" and isinstance(target, dict):
            target[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        elif edit == "append" and isinstance(target, list):
            target.append(draw(JSON_VALUES))
        elif edit == "wrap":
            request = _set(request, path, [target])
    return request


def _analyze_stdin(text):
    """(exit code, stderr) of `d0res analyze -` fed `text`."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["analyze", "-"])
    finally:
        sys.stdin = stdin
    return code, stderr.getvalue()


def _check_outcome(text):
    code, err = _analyze_stdin(text)
    assert "Traceback" not in err
    if code == 2:
        match = re.match(r"input error: (.*?): ", err)
        assert match and _PATH.fullmatch(match.group(1)), err
    elif code == 3:
        assert err.startswith("unsupported field extension: "), err
    else:
        assert code == 0 and err == "", (code, err)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_any_json_value_is_analysed_or_refused_with_a_path(value):
    _check_outcome(json.dumps(value))


@settings(max_examples=300, deadline=None)
@given(near_valid_requests())
def test_near_valid_requests_are_analysed_or_refused_with_a_path(request):
    _check_outcome(json.dumps(request))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40)
       | JSON_VALUES.map(lambda v: json.dumps(v)[:-1])
       | st.integers(1, 5000).map(lambda n: "[" * n + "]" * n))
def test_text_that_is_not_a_request_is_refused(text):
    """Truncated JSON, any text, and arrays nested past the recursion limit."""
    _check_outcome(text)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70).map(str)
       | st.integers(1, 6000).map(lambda n: "7" * n))
def test_any_integer_truncation_is_analysed_or_refused(digits):
    """The cusp at any starting truncation: above the ceiling and past
    Python's integer digit limit included."""
    text = json.dumps(SKELETONS[0])
    _check_outcome(f'{text[:-1]}, "truncation": {digits}}}')
