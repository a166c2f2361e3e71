import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbuchi.automata import (
    AutomatonFormatError,
    Cutpoint,
    CutpointWarning,
    Mmqba,
    Mmqfa,
    Violation,
    default_tolerance,
    load,
    loads,
    save,
    saves,
    validate,
    _json_text,
    _walk_matrix,
)
from qbuchi.fixtures import fixture_path, list_fixtures

from conftest import FIXTURE_NAMES, haar_unitary, make_automaton


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bundled_fixture_is_valid(name):
    a = load(fixture_path(name))
    assert validate(a) == []


def test_fixture_listing_matches():
    assert tuple(list_fixtures()) == FIXTURE_NAMES


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_is_byte_stable(name):
    path = fixture_path(name)
    text = path.read_text()
    assert saves(load(path)) == text


def test_round_trip_preserves_entries_exactly():
    a = load(fixture_path("lang_a_prefix"))
    b = loads(saves(a))
    assert b.state_names == a.state_names
    assert b.alphabet == a.alphabet
    assert b.initial == a.initial
    assert b.accepting == a.accepting
    assert b.rejecting == a.rejecting
    for sym in a.alphabet:
        assert np.array_equal(a.unitaries[sym], b.unitaries[sym])


def test_save_and_load_file(tmp_path):
    a = load(fixture_path("lang_ab_cycle"))
    out = tmp_path / "copy.qba"
    save(a, out)
    b = load(out)
    assert b.state_names == a.state_names
    assert np.array_equal(a.unitaries["b"], b.unitaries["b"])


# The writer that saves replaced, built on json.dumps: the reference for the
# row-template writer, which must produce the same bytes.
def _json_encode_matrix(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _json_encode(a):
    unitaries = {}
    if a.end_marker_unitary is not None:
        unitaries["#"] = _json_encode_matrix(a.end_marker_unitary)
    if isinstance(a, Mmqfa):
        unitaries["$"] = _json_encode_matrix(a.terminal_unitary)
    for sym in sorted(a.alphabet):
        unitaries[sym] = _json_encode_matrix(a.unitaries[sym])
    return {
        "type": a.kind,
        "states": list(a.state_names),
        "alphabet": list(a.alphabet),
        "initial": a.state_names[a.initial],
        "accepting": [a.state_names[i] for i in sorted(a.accepting)],
        "rejecting": [a.state_names[i] for i in sorted(a.rejecting)],
        "unitaries": unitaries,
    }


def _json_saves(a):
    return json.dumps(_json_encode(a), indent=2, ensure_ascii=False) + "\n"


def _haar_automaton(rng, dim, names=None, alphabet=("a", "b"), **extra):
    halting = rng.permutation(dim)
    kind = Mmqfa if "terminal_unitary" in extra else Mmqba
    return kind(
        state_names=names or [f"q{i}" for i in range(dim)],
        alphabet=list(alphabet),
        unitaries={sym: haar_unitary(rng, dim) for sym in alphabet},
        initial=int(halting[0]),
        accepting=frozenset(int(i) for i in halting[1:2]),
        rejecting=frozenset(int(i) for i in halting[2:4]),
        **extra,
    )


def _writer_cases():
    rng = np.random.default_rng(7)
    for dim in range(1, 31):
        yield f"haar{dim}", _haar_automaton(rng, dim)
    yield "mmqfa", _haar_automaton(rng, 4, terminal_unitary=haar_unitary(rng, 4))
    yield "end-marker", _haar_automaton(rng, 5, end_marker_unitary=haar_unitary(rng, 5))
    yield "both-markers", _haar_automaton(
        rng, 3, end_marker_unitary=haar_unitary(rng, 3), terminal_unitary=haar_unitary(rng, 3))
    yield "escaped-names", _haar_automaton(
        rng, 3, names=['q"0', "q\\1", "qé"], alphabet=('"', "\\", "é"))
    m = haar_unitary(rng, 3)
    m[0, 0] = complex(np.nan, np.inf)
    m[1, 2] = complex(-np.inf, -0.0)
    m[2, 1] = complex(-0.0, 0.0)
    yield "non-finite", make_automaton({"a": m, "b": np.eye(3)}, accepting=[1], rejecting=[2])
    for name in FIXTURE_NAMES:
        yield name, load(fixture_path(name))


@pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in _writer_cases()])
def test_saves_writes_what_json_dumps_writes(a):
    text = saves(a)
    assert text == _json_saves(a)
    assert saves(loads(text)) == text
    b = loads(text)
    mats = [(a.unitaries[s], b.unitaries[s]) for s in a.alphabet]
    if a.end_marker_unitary is not None:
        mats.append((a.end_marker_unitary, b.end_marker_unitary))
    if isinstance(a, Mmqfa):
        mats.append((a.terminal_unitary, b.terminal_unitary))
    for want, got in mats:
        assert got.dtype == np.complex128
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_saves_writes_empty_rows_and_columns_as_json_dumps_does():
    # loads rejects such shapes, but saves takes any automaton it is given
    a = Mmqba(
        state_names=["q0", "q1"],
        alphabet=["a", "b"],
        unitaries={"a": np.zeros((0, 2)), "b": np.zeros((2, 0))},
        initial=0,
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    assert saves(a) == _json_saves(a)


def test_codec_memory_stays_near_the_text_size(tmp_path):
    # saves holds the row pieces and their join; loads holds the parsed
    # document and the decoded matrices; load holds the text on top of what
    # loads holds, the file's bytes being dropped before the parse
    a = _haar_automaton(np.random.default_rng(3), 81)
    text = saves(a)
    path = tmp_path / "haar81.qba"
    save(a, path)
    calls = ((lambda: saves(a), 2.5), (lambda: loads(text), 2.0), (lambda: load(path), 3.0))
    for call, bound in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text)


def _doc(name="swap_halt_once"):
    return json.loads(fixture_path(name).read_text())


def _expect_format_error(doc, fragment):
    with pytest.raises(AutomatonFormatError) as err:
        loads(json.dumps(doc))
    assert fragment in str(err.value)


def test_loads_rejects_missing_key():
    doc = _doc()
    del doc["alphabet"]
    _expect_format_error(doc, "missing required key")


def test_loads_rejects_unknown_key():
    doc = _doc()
    doc["comment"] = "hi"
    _expect_format_error(doc, "unknown keys")


def test_loads_rejects_bad_type():
    doc = _doc()
    doc["type"] = "qba"
    _expect_format_error(doc, "type must be")


def test_loads_rejects_duplicate_states():
    doc = _doc()
    doc["states"] = ["q0", "q0"]
    _expect_format_error(doc, "distinct")


def test_loads_rejects_unknown_initial():
    doc = _doc()
    doc["initial"] = "nope"
    _expect_format_error(doc, "unknown initial state")


def test_loads_rejects_unknown_accepting_state():
    doc = _doc()
    doc["accepting"] = ["q7"]
    _expect_format_error(doc, "unknown state")


def test_loads_rejects_reserved_symbol():
    doc = _doc()
    doc["alphabet"] = ["a", "#"]
    _expect_format_error(doc, "reserved")


def test_loads_rejects_multichar_symbol():
    doc = _doc()
    doc["alphabet"] = ["ab"]
    _expect_format_error(doc, "single character")


def test_loads_rejects_missing_unitary():
    doc = _doc()
    del doc["unitaries"]["b"]
    _expect_format_error(doc, "missing unitary")


def test_loads_rejects_unexpected_unitary():
    doc = _doc()
    doc["unitaries"]["c"] = doc["unitaries"]["a"]
    _expect_format_error(doc, "unexpected unitary key")


def test_loads_rejects_bad_matrix_shape():
    doc = _doc()
    doc["unitaries"]["a"] = doc["unitaries"]["a"][:1]
    _expect_format_error(doc, "expected 2 rows")


def test_loads_rejects_non_pair_entry():
    doc = _doc()
    doc["unitaries"]["a"][0][0] = [0.0]
    _expect_format_error(doc, "pair")


def test_loads_rejects_boolean_entry():
    doc = _doc()
    doc["unitaries"]["a"][0][0] = [True, 0.0]
    _expect_format_error(doc, "must be a number")


def test_loads_requires_terminal_for_mmqfa():
    doc = _doc()
    doc["type"] = "mmqfa"
    _expect_format_error(doc, "requires a '$' unitary")


def test_loads_rejects_terminal_for_mmqba():
    doc = _doc("finite_ab")
    doc["type"] = "mmqba"
    _expect_format_error(doc, "unexpected unitary key")


def test_mmqfa_requires_a_terminal_unitary():
    with pytest.raises(ValueError, match=r"^mmqfa requires a terminal '\$' unitary$"):
        Mmqfa(("q0", "q1"), ("a",), {"a": np.eye(2)}, 0, frozenset({1}), frozenset())


@pytest.mark.parametrize("obj,name", [(object(), "object"), (np.int64(1), "int64"),
                                      ({"k": 1j}, "complex")])
def test_json_text_refuses_what_it_cannot_write(obj, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        _json_text(obj)


def test_format_error_carries_path():
    doc = _doc()
    doc["unitaries"]["a"][0][1] = [0.0]
    with pytest.raises(AutomatonFormatError) as err:
        loads(json.dumps(doc))
    assert err.value.path == "unitaries.a[0][1]"
    with pytest.raises(AutomatonFormatError) as parse_err:
        loads("not json")
    assert "parse error" in str(parse_err.value)


def test_loads_rejects_number_out_of_float_range():
    doc = _doc()
    doc["unitaries"]["a"][1][0] = [10 ** 400, 0.0]
    with pytest.raises(AutomatonFormatError) as err:
        loads(json.dumps(doc))
    assert err.value.path == "unitaries.a[1][0]"


_ENTRY_ERROR = "matrix entry must be a [re, im] pair"
_RANGE_ERROR = "number is out of the float range"
_BAD_VALUES = [True, "1.0", None, 10 ** 400, [1.0], [1.0, 0.0, 0.0], {}, 0.5]


def _bad_value_cases():
    """(value, index, message) for a bad value placed in a matrix: as the
    entry itself (index None), or as its real (0) or imaginary (1) part."""
    for value in _BAD_VALUES:
        yield value, None, _ENTRY_ERROR
        if isinstance(value, float):
            continue  # a bare number is a valid part
        for index, part in ((0, "real"), (1, "imaginary")):
            message = _RANGE_ERROR if value == 10 ** 400 else f"{part} part must be a number"
            yield value, index, message


@pytest.mark.parametrize("value, index, message", list(_bad_value_cases()),
                         ids=lambda v: repr(v)[:12])
@pytest.mark.parametrize("s, t", [(0, 0), (17, 29), (29, 3)])
def test_loads_names_the_bad_matrix_entry(value, index, message, s, t):
    a = _haar_automaton(np.random.default_rng(5), 30)
    doc = json.loads(saves(a))
    if index is None:
        doc["unitaries"]["b"][s][t] = value
    else:
        doc["unitaries"]["b"][s][t][index] = value
    with pytest.raises(AutomatonFormatError) as err:
        loads(json.dumps(doc))
    assert err.value.path == f"unitaries.b[{s}][{t}]"
    assert str(err.value) == f"unitaries.b[{s}][{t}]: {message}"


@pytest.mark.parametrize("row", [0.5, [], [[1.0, 0.0]] * 29, [[1.0, 0.0]] * 31, None])
def test_loads_names_the_bad_matrix_row(row):
    doc = json.loads(saves(_haar_automaton(np.random.default_rng(5), 30)))
    doc["unitaries"]["a"][12] = row
    with pytest.raises(AutomatonFormatError) as err:
        loads(json.dumps(doc))
    assert str(err.value) == "unitaries.a[12]: expected 30 entries"


def test_loads_decodes_integer_entries_exactly():
    ints = [0, 1, -3, 2 ** 53 + 1, -(2 ** 64) - 1, 10 ** 300, 7 ** 100]
    dim = 3
    raw = [[[ints[(s + t) % len(ints)], ints[(s * t + 1) % len(ints)]] for t in range(dim)]
           for s in range(dim)]
    doc = _doc("no_entry")
    doc["unitaries"]["a"] = raw
    got = loads(json.dumps(doc)).unitaries["a"]
    want = np.array([[complex(float(re), float(im)) for re, im in row] for row in raw])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000],
                         ids=["deep-nesting", "long-integer"])
def test_loads_rejects_what_the_parser_cannot_convert(text):
    with pytest.raises(AutomatonFormatError) as err:
        loads(text)
    assert err.value.path == "$"


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.qba"
    path.write_bytes(b'{"type": "mmqba\xe9"}')
    with pytest.raises(AutomatonFormatError) as err:
        load(path)
    assert "offset 15" in str(err.value)


def _node_paths(node, path=()):
    """The path of keys and indices to every node of a JSON document."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _node_paths(child, path + (key,))


_DELETE = object()
_REPLACEMENTS = st.one_of(
    st.sampled_from([_DELETE, 10 ** 400, -(10 ** 400), True, None, "", [], {}]),
    st.recursive(
        st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loads_raises_only_format_errors_on_mutated_documents(data):
    doc = _doc(data.draw(st.sampled_from(FIXTURE_NAMES)))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    value = data.draw(_REPLACEMENTS)
    if not path:
        doc = None if value is _DELETE else value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        assert isinstance(loads(json.dumps(doc)), Mmqba)
    except AutomatonFormatError as err:
        if len(path) > 2 and path[0] == "unitaries":
            # inside a matrix: the error names the first bad row or entry,
            # which the entry walk finds on the mutated matrix alone
            with pytest.raises(AutomatonFormatError) as walked:
                _walk_matrix(doc["unitaries"][path[1]], len(doc["states"]),
                             f"unitaries.{path[1]}")
            assert err.path == walked.value.path


def test_load_mmqfa_kind():
    a = load(fixture_path("finite_ab"))
    assert isinstance(a, Mmqfa)
    assert a.kind == "mmqfa"
    assert a.terminal_unitary.shape == (a.dim, a.dim)


def test_halting_partition_properties():
    a = load(fixture_path("lang_aab_cycle"))
    assert a.halting == (3, 4, 5)
    assert a.nonhalting == (0, 1, 2)
    assert a.dim == 6


def test_unitary_for_marker_defaults_to_identity():
    a = load(fixture_path("no_entry"))
    assert np.array_equal(a.unitary_for("#"), np.eye(3))
    with pytest.raises(KeyError):
        a.unitary_for("z")


def test_end_marker_unitary_is_used_when_present():
    swap = [[0.0, 1.0], [1.0, 0.0]]
    a = Mmqba(
        state_names=("q0", "q1"),
        alphabet=("a",),
        unitaries={"a": np.eye(2)},
        initial=0,
        accepting=frozenset([1]),
        rejecting=frozenset(),
        end_marker_unitary=np.array(swap),
    )
    assert validate(a) == []
    assert np.array_equal(a.unitary_for("#"), np.array(swap, dtype=complex))


def test_validate_flags_non_unitary():
    a = make_automaton({"a": 1.01 * np.eye(2)}, accepting=[1], rejecting=[])
    bad = validate(a)
    assert any(v.invariant == "unitarity(V_a)" for v in bad)
    assert validate(a, tol=0.1) == []


def test_validate_flags_a_unitarity_deviation_that_overflows_to_nan():
    # finite entries whose U†U overflows: the deviation is NaN, which passes
    # `dev > tol` but not `dev <= tol`; warnings are errors here, so the
    # check is also silent
    m = 1e200 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    a = make_automaton({"a": m}, accepting=[1], rejecting=[])
    bad = validate(a, tol=1e300)
    assert [v.invariant for v in bad] == ["unitarity(V_a)"]


def test_validate_flags_nonfinite():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    a = make_automaton({"a": m}, accepting=[1], rejecting=[])
    assert any(v.invariant == "finite(V_a)" for v in validate(a))


def test_validate_flags_shape():
    a = make_automaton({"a": np.eye(2)}, accepting=[1], rejecting=[])
    a.unitaries["a"] = np.eye(3, dtype=complex)
    assert any(v.invariant == "shape(V_a)" for v in validate(a))


def test_validate_flags_overlap_and_initial():
    a = make_automaton({"a": np.eye(2)}, accepting=[0, 1], rejecting=[1])
    bad = {v.invariant for v in validate(a)}
    assert "disjointness" in bad
    assert "initial" in bad  # the initial state is halting


def test_validate_flags_out_of_range_indices():
    a = make_automaton({"a": np.eye(2)}, accepting=[5], rejecting=[])
    assert any(v.invariant == "halting" for v in validate(a))


def test_validate_flags_unitary_bookkeeping():
    a = make_automaton({"a": np.eye(2)}, accepting=[1], rejecting=[])
    a.unitaries["z"] = np.eye(2, dtype=complex)
    del a.unitaries["a"]
    bad = [str(v) for v in validate(a)]
    assert any("missing unitary" in s for s in bad)
    assert any("outside the alphabet" in s for s in bad)


_TWO_STATES = dict(state_names=("q0", "q1"), alphabet=("a",), unitaries={"a": np.eye(2)},
                   initial=0, accepting=frozenset([1]), rejecting=frozenset())


@pytest.mark.parametrize("fields,invariant,detail", [
    (dict(state_names=(), unitaries={"a": np.eye(0)}), "states", "state set must be nonempty"),
    (dict(state_names=("q0", "q0")), "states", "state names must be distinct"),
    (dict(alphabet=(), unitaries={}), "alphabet", "alphabet must be nonempty"),
    (dict(alphabet=("a", "a")), "alphabet", "alphabet symbols must be distinct"),
    (dict(alphabet=("ab",), unitaries={"ab": np.eye(2)}),
     "alphabet", "symbol 'ab' is not a single character"),
    (dict(alphabet=("#",), unitaries={"#": np.eye(2)}), "alphabet", "symbol '#' is reserved"),
    (dict(initial=5), "initial", "initial index 5 out of range"),
], ids=["no-states", "duplicate-names", "no-symbols", "duplicate-symbols",
        "long-symbol", "reserved-symbol", "initial-out-of-range"])
def test_validate_flags_each_structural_rule(fields, invariant, detail):
    a = Mmqba(**{**_TWO_STATES, **fields})
    assert Violation(invariant, detail) in validate(a)


def test_violation_str():
    v = Violation("unitarity(V_a)", "max deviation 1e-3")
    assert str(v) == "unitarity(V_a): max deviation 1e-3"


def test_default_tolerance_env(monkeypatch):
    monkeypatch.delenv("QBA_TOL", raising=False)
    assert default_tolerance() == 1e-10
    monkeypatch.setenv("QBA_TOL", "1e-3")
    assert default_tolerance() == 1e-3
    a = make_automaton({"a": (1.0 + 1e-5) * np.eye(2)}, accepting=[1], rejecting=[])
    assert validate(a) == []
    monkeypatch.setenv("QBA_TOL", "bogus")
    with pytest.raises(ValueError):
        default_tolerance()
    # inf would pass every finite matrix as unitary
    for bad in ("-1", "0", "nan", "inf"):
        monkeypatch.setenv("QBA_TOL", bad)
        with pytest.raises(ValueError, match="QBA_TOL must be finite and positive"):
            default_tolerance()


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0, True, "1e-3"])
def test_validate_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # a shear is 1 off unitary, which tol=inf would pass; NaN or tol <= 0
    # would flag it, as it would flag every matrix
    a = make_automaton({"a": [[1.0, 1.0], [0.0, 1.0]]}, accepting=[1], rejecting=[])
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        validate(a, tol=tol)


def test_validate_reports_a_symbol_that_is_not_a_string():
    a = make_automaton({1: np.eye(2)}, accepting=[1], rejecting=[])
    assert [str(v) for v in validate(a)] == ["alphabet: symbol 1 is not a single character"]


def test_cutpoint_range_and_warning():
    with pytest.raises(ValueError):
        Cutpoint(0.0)
    with pytest.raises(ValueError):
        Cutpoint(1.5)
    with pytest.raises(ValueError):
        Cutpoint(float("nan"))
    # float() would read the first four as numbers, and refuse None with a TypeError
    for bad in (True, np.True_, "0.8", b"0.8", None):
        with pytest.raises(ValueError, match=r"cutpoint must lie in \(0, 1\]"):
            Cutpoint(bad)
    with pytest.warns(CutpointWarning):
        assert Cutpoint(0.5) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Cutpoint(0.8) == 0.8
    assert isinstance(Cutpoint(0.8), float)
