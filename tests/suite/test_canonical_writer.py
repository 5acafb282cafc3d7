"""The one-pass canonical writer against the two-pass reference.

``canonical_json`` and ``canonical_json_line`` walk a payload once; the
bytes they must produce are defined by the original two-pass form,
``json.dumps(canonicalize(payload), sort_keys=True, ...)``, which these
tests keep as the oracle.
"""

from __future__ import annotations

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.suite.report import canonical_json, canonical_json_line, canonicalize


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blüe\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**12


def reference(payload) -> str:
    return json.dumps(canonicalize(payload), sort_keys=True, indent=2) + "\n"


def reference_line(payload) -> str:
    return json.dumps(canonicalize(payload), sort_keys=True,
                      separators=(",", ":")) + "\n"


def outcome(fn, payload):
    """``fn(payload)``, or the marker that it raised ``TypeError``."""
    try:
        return fn(payload)
    except TypeError:
        return TypeError


#: values that compare and hash alike but encode differently
_LOOKALIKES = st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0,
                               float("nan"), float("inf"), float("-inf")])

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),                       # NaN, +-inf and -0.0 included
    st.floats(allow_nan=False).map(np.float64),
    _LOOKALIKES,
    st.text(),                         # non-ASCII, controls, quotes, surrogates
    st.sampled_from(["\"\\/\b\f\n\r\t", " ", "\U0001f600", ""]),
    st.sampled_from(list(Colour) + list(Level)),
)

_KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(-20, 20),              # "10" sorts before "9"
)


def _payloads(leaves, keys):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(keys, inner, max_size=5),
        ),
        max_leaves=30,
    )


PAYLOADS = _payloads(_LEAVES, _KEYS)

#: payloads that may hold unsupported values or incomparable keys
_UNSUPPORTED = st.sampled_from([object(), np.int64(3), {1, 2}, b"x", 1j])
ANY_PAYLOADS = _payloads(st.one_of(_LEAVES, _UNSUPPORTED),
                         st.one_of(_KEYS, st.sampled_from([None, 2.5, (1, 2)])))


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_matches_two_pass_reference(payload):
    assert outcome(canonical_json, payload) == outcome(reference, payload)
    assert outcome(canonical_json_line, payload) == outcome(reference_line, payload)


@settings(max_examples=200, deadline=None)
@given(ANY_PAYLOADS)
def test_raises_type_error_where_canonicalize_does(payload):
    expected = outcome(canonicalize, payload)
    assert (outcome(canonical_json, payload) is TypeError) == (expected is TypeError)
    assert (outcome(canonical_json_line, payload) is TypeError) == (expected is TypeError)
    if expected is not TypeError:
        assert canonical_json(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    {"zero": [0.0, -0.0, 0.0], "one": [True, 1, 1.0, Level.LOW]},
    {10: "a", 9: "b", -1: "c"},
    {"nonfinite": [float("nan"), float("inf"), float("-inf")]},
    {"text": ["café", "\x00\x1f", Colour.BLUE], "empty": [{}, [], ()]},
    {"rounded": [1.23456789012345, 1e300, 5e-324, np.float64(2.0 / 3.0)]},
])
def test_pinned_edge_cases(payload):
    assert canonical_json(payload) == reference(payload)
    assert canonical_json_line(payload) == reference_line(payload)


@pytest.mark.parametrize("payload", [
    {"x": object()}, [np.int64(1)], {"a": 1, 2: "b"}, {"s": {1}},
])
def test_rejects_what_canonicalize_rejects(payload):
    for fn in (canonicalize, canonical_json, canonical_json_line):
        with pytest.raises(TypeError):
            fn(payload)
