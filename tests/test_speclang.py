import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veribench.speclang import (
    Conjunct,
    NormalizedSpec,
    SpecError,
    load_spec,
    parse_vnnlib,
    to_dnf,
)

from oracles import ast_satisfied, spec_satisfied

MINIMAL = (
    "(declare-const X_0 Real)(declare-const Y_0 Real)"
    "(assert (and (>= X_0 -1.0) (<= X_0 1.0)))(assert (>= Y_0 0.5))"
)


def test_undeclared_variable():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (<= X_0 0.5))(assert (>= Y_0 Y_1))"
    )
    with pytest.raises(SpecError, match="undeclared variable Y_1"):
        parse_vnnlib(text)


def test_minimal_wellformed():
    ast = parse_vnnlib(MINIMAL)
    assert ast.n_inputs == 1
    assert ast.n_outputs == 1
    assert len(ast.assertions) == 2


def test_comments_and_scientific_literals():
    text = """
; property header comment
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 -1.5e-2)) ; inline comment
(assert (<= X_0 2E3))
(assert (>= Y_0 0.5))
"""
    spec = to_dnf(parse_vnnlib(text))
    (conj,) = spec.disjuncts
    assert conj.input_lower.tolist() == [-0.015]
    assert conj.input_upper.tolist() == [2000.0]


def test_syntax_error_position():
    with pytest.raises(SpecError, match=r"line 2"):
        parse_vnnlib("(declare-const X_0 Real)\n(assert (<= X_0 0.5)")


def test_nonaffine_product_rejected():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (<= (* X_0 Y_0) 1.0))"
    )
    with pytest.raises(SpecError, match=r"non-affine term \(\* X_0 Y_0\)"):
        parse_vnnlib(text)


def test_constant_product_and_nested_arithmetic():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (<= (+ (* 2.0 Y_0) (- X_0) 1.0) (* 2.0 3.0)))"
    )
    spec = to_dnf(parse_vnnlib(text))
    (conj,) = spec.disjuncts
    # 2 y - x + 1 <= 6  ->  2 y - x <= 5
    assert conj.a_y.tolist() == [[2.0]]
    assert conj.b_x.tolist() == [[-1.0]]
    assert conj.rhs.tolist() == [5.0]


def test_nondense_indices_rejected():
    with pytest.raises(SpecError, match="not dense"):
        parse_vnnlib("(declare-const X_0 Real)(declare-const X_2 Real)")
    with pytest.raises(SpecError, match="not dense"):
        parse_vnnlib("(declare-const Y_1 Real)")


def test_duplicate_declaration_rejected():
    with pytest.raises(SpecError, match="duplicate declaration X_0"):
        parse_vnnlib("(declare-const X_0 Real)(declare-const X_0 Real)")


def test_strict_ops_warn_and_act_nonstrict():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (> X_0 0.0))(assert (< X_0 1.0))(assert (> Y_0 2.0))"
    )
    with pytest.warns(UserWarning, match="treated as non-strict"):
        ast = parse_vnnlib(text)
    spec = to_dnf(ast)
    (conj,) = spec.disjuncts
    assert conj.input_lower.tolist() == [0.0]
    assert conj.input_upper.tolist() == [1.0]


# -- to_dnf -----------------------------------------------------------------


def test_single_conjunct_folding():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 2.0))"
    )
    spec = to_dnf(parse_vnnlib(text))
    assert spec.n_inputs == 1 and spec.n_outputs == 1
    (conj,) = spec.disjuncts
    assert conj.input_lower.tolist() == [0.0]
    assert conj.input_upper.tolist() == [1.0]
    # Y_0 >= 2 normalized to -Y_0 <= -2
    assert conj.a_y.tolist() == [[-1.0]]
    assert conj.b_x.tolist() == [[0.0]]
    assert conj.rhs.tolist() == [-2.0]


def test_or_distributes_box_into_both_disjuncts():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)(declare-const Y_1 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (or (>= Y_0 2.0) (<= Y_1 -1.0)))"
    )
    spec = to_dnf(parse_vnnlib(text))
    assert len(spec.disjuncts) == 2
    for conj in spec.disjuncts:
        assert conj.input_lower.tolist() == [0.0]
        assert conj.input_upper.tolist() == [1.0]
        assert len(conj.rhs) == 1


def test_or_without_box_is_unbounded_error():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (or (>= Y_0 2.0) (<= Y_0 -1.0)))"
    )
    with pytest.raises(SpecError, match="unbounded input dimension"):
        to_dnf(parse_vnnlib(text))


def test_tightest_bound_wins():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (>= X_0 0.25))"
        "(assert (<= X_0 1.0))(assert (<= X_0 0.75))"
        "(assert (>= Y_0 0.0))"
    )
    (conj,) = to_dnf(parse_vnnlib(text)).disjuncts
    assert conj.input_lower.tolist() == [0.25]
    assert conj.input_upper.tolist() == [0.75]


def test_empty_box_conjunct_dropped():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= Y_0 0.0))"
        "(assert (or (and (>= X_0 2.0) (<= X_0 1.0)) (and (>= X_0 0.0) (<= X_0 1.0))))"
    )
    spec = to_dnf(parse_vnnlib(text))
    assert len(spec.disjuncts) == 1
    assert spec.disjuncts[0].input_lower.tolist() == [0.0]


def test_constant_atoms_fold():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (or (and (<= 1.0 0.0) (>= Y_0 5.0)) (and (<= 0.0 1.0) (>= Y_0 2.0))))"
    )
    spec = to_dnf(parse_vnnlib(text))
    # first branch is trivially false, second keeps only the Y atom
    assert len(spec.disjuncts) == 1
    assert spec.disjuncts[0].rhs.tolist() == [-2.0]


def test_pure_input_multivar_atom_kept_as_constraint():
    text = (
        "(declare-const X_0 Real)(declare-const X_1 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (>= X_1 0.0))(assert (<= X_1 1.0))"
        "(assert (<= (+ X_0 X_1) 1.5))(assert (>= Y_0 0.0))"
    )
    (conj,) = to_dnf(parse_vnnlib(text)).disjuncts
    kinds = sorted(tuple(row) for row in conj.a_y.tolist())
    assert len(conj.rhs) == 2
    assert (0.0,) in kinds  # the x_0 + x_1 <= 1.5 row has no output part


def test_disjunct_cap():
    # 13 binary ors distribute to 2^13 = 8192 > 4096
    clauses = "".join(
        f"(assert (or (>= Y_{0} {k}.0) (<= Y_{0} -{k}.0)))" for k in range(1, 14)
    )
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))" + clauses
    )
    with pytest.raises(SpecError, match="specification too disjunctive"):
        to_dnf(parse_vnnlib(text))


def test_determinism_byte_identical_dump():
    text = MINIMAL + "(assert (or (<= Y_0 0.25) (>= Y_0 0.75)))"
    a = to_dnf(parse_vnnlib(text)).dumps()
    b = to_dnf(parse_vnnlib(text)).dumps()
    assert a == b
    json.loads(a)  # dump is valid JSON


# -- construction checks and the stacked search arrays ------------------------

BOX3 = ((0.0,) * 3, (1.0,) * 3)
ROW3 = ([[-1.0]], [[0.0] * 3], [-2.0])  # y >= 2, over 3 inputs and 1 output


@pytest.mark.parametrize(
    "conj, match",
    [
        (Conjunct((0.0,), (1.0,), *ROW3), "shapes"),
        (Conjunct(*BOX3, [[-1.0, 0.0]], [[0.0] * 3], [-2.0]), "shapes"),
        (Conjunct((0.0, -np.inf, 0.0), BOX3[1], *ROW3), "finite"),
        (Conjunct(BOX3[0], (1.0, np.nan, 1.0), *ROW3), "finite"),
        (Conjunct((0.0, 2.0, 0.0), BOX3[1], *ROW3), "lower > upper"),
        (Conjunct(*BOX3, [[-1.0]], [[0.0] * 3], [np.inf]), "finite"),
        (Conjunct(*BOX3, [[-1.0]], [[0.0] * 3], [np.nan]), "finite"),
    ],
    ids=[
        "1-entry box",
        "2-wide a_y row",
        "infinite bound",
        "nan bound",
        "inverted box",
        "infinite rhs",
        "nan rhs",
    ],
)
def test_spec_construction_checks_every_disjunct(conj, match):
    # the bad disjunct comes second.  Unchecked, a 1-entry box broadcasts
    # over the 3 inputs: verify and validate_witness answer on it, and only
    # falsify raises
    NormalizedSpec(3, 1, (Conjunct(*BOX3, *ROW3),))
    with pytest.raises(ValueError, match=match):
        NormalizedSpec(3, 1, (Conjunct(*BOX3, *ROW3), conj))


def test_spec_stacks_disjuncts_with_inert_padding_rows():
    one = Conjunct((0.0,), (1.0,), [[1.0]], [[2.0]], [3.0])
    three = Conjunct(
        (-1.0,), (0.5,), [[4.0], [5.0], [6.0]], [[7.0], [8.0], [9.0]], [10.0, 11.0, 12.0]
    )
    spec = NormalizedSpec(1, 1, (one, three))
    (a_y, b_x, rhs), (lower, upper) = spec.rows, spec.boxes
    # the 1-row disjunct is padded with rows a_y = 0, b_x = 0, rhs = +inf
    assert a_y.tolist() == [[[1.0], [0.0], [0.0]], [[4.0], [5.0], [6.0]]]
    assert b_x.tolist() == [[[2.0], [0.0], [0.0]], [[7.0], [8.0], [9.0]]]
    assert rhs.tolist() == [[3.0, np.inf, np.inf], [10.0, 11.0, 12.0]]
    assert lower.tolist() == [[0.0], [-1.0]] and upper.tolist() == [[1.0], [0.5]]
    arrays = (a_y, b_x, rhs, lower, upper, one.input_lower, one.a_y, three.rhs)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert "rows" not in repr(spec) and "boxes" not in repr(spec)


# -- satisfaction of the normal form ------------------------------------------


@pytest.fixture
def box_spec():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 2.0))"
    )
    return to_dnf(parse_vnnlib(text))


def test_eval_boundary_satisfied(box_spec):
    assert spec_satisfied(box_spec, [0.5], [2.0]) is True


def test_eval_tolerance_slack(box_spec):
    # exact satisfaction has no slack; the witness rule's is in test_verifier
    assert spec_satisfied(box_spec, [0.5], [1.999999]) is False


def test_eval_outside_box(box_spec):
    assert spec_satisfied(box_spec, [1.5], [3.0]) is False


# -- sampling equivalence oracle ---------------------------------------------


def _random_spec_text(rng, n_inputs, n_outputs, max_or_nodes=3):
    """Random spec with bounded disjunction depth and a guaranteed input box."""
    lines = []
    for i in range(n_inputs):
        lines.append(f"(declare-const X_{i} Real)")
    for j in range(n_outputs):
        lines.append(f"(declare-const Y_{j} Real)")
    for i in range(n_inputs):
        lo = rng.uniform(-2, 0)
        hi = rng.uniform(0, 2)
        lines.append(f"(assert (>= X_{i} {lo!r}))")
        lines.append(f"(assert (<= X_{i} {hi!r}))")

    or_budget = [rng.integers(0, max_or_nodes + 1)]

    def atom():
        op = rng.choice(["<=", ">="])
        terms = []
        for j in range(n_outputs):
            if rng.random() < 0.6:
                terms.append(f"(* {rng.uniform(-2, 2)!r} Y_{j})")
        for i in range(n_inputs):
            if rng.random() < 0.3:
                terms.append(f"(* {rng.uniform(-2, 2)!r} X_{i})")
        if not terms:
            terms.append(f"Y_{rng.integers(0, n_outputs)}")
        lhs = f"(+ {' '.join(terms)})" if len(terms) > 1 else terms[0]
        return f"({op} {lhs} {rng.uniform(-3, 3)!r})"

    def term(depth):
        if depth > 2:
            return atom()
        r = rng.random()
        if r < 0.35 and or_budget[0] > 0:
            or_budget[0] -= 1
            k = int(rng.integers(2, 4))
            return "(or " + " ".join(term(depth + 1) for _ in range(k)) + ")"
        if r < 0.6:
            k = int(rng.integers(2, 4))
            return "(and " + " ".join(term(depth + 1) for _ in range(k)) + ")"
        return atom()

    for _ in range(int(rng.integers(1, 3))):
        lines.append(f"(assert {term(0)})")
    return "\n".join(lines)


def test_ast_vs_dnf_sampling_equivalence():
    rng = np.random.default_rng(20210901)
    for _ in range(40):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        ast = parse_vnnlib(_random_spec_text(rng, n_in, n_out))
        spec = to_dnf(ast)
        xs = rng.uniform(-3, 3, size=(1000, n_in))
        ys = rng.uniform(-5, 5, size=(1000, n_out))
        for x, y in zip(xs, ys):
            assert ast_satisfied(ast, x, y) == spec_satisfied(spec, x, y)


def test_folding_soundness():
    # every point satisfying a conjunct satisfies all of its source atoms
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_in = int(rng.integers(1, 3))
        n_out = int(rng.integers(1, 3))
        ast = parse_vnnlib(_random_spec_text(rng, n_in, n_out))
        spec = to_dnf(ast)
        xs = rng.uniform(-3, 3, size=(300, n_in))
        ys = rng.uniform(-5, 5, size=(300, n_out))
        for x, y in zip(xs, ys):
            if spec_satisfied(spec, x, y):
                assert ast_satisfied(ast, x, y)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-10, 0),
    hi=st.floats(0, 10),
    thr=st.floats(-5, 5),
    x=st.floats(-12, 12),
    y=st.floats(-6, 6),
)
def test_single_box_spec_matches_closed_form(lo, hi, thr, x, y):
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        f"(assert (>= X_0 {lo!r}))(assert (<= X_0 {hi!r}))"
        f"(assert (>= Y_0 {thr!r}))"
    )
    spec = to_dnf(parse_vnnlib(text))
    expected = (lo <= x <= hi) and y >= thr
    assert spec_satisfied(spec, [x], [y]) == expected


def test_nesting_depth_is_capped():
    head = "(declare-const X_0 Real)(declare-const Y_0 Real)(assert (<= X_0 1.0))"

    def nested(depth):
        return head + "(assert " + "(and " * depth + "(>= X_0 0.0))" + ")" * depth

    assert len(to_dnf(parse_vnnlib(nested(250))).disjuncts) == 1
    # without the cap, 500 levels overflow the recursion limit
    for depth in (300, 500, 5000):
        with pytest.raises(SpecError, match="nested deeper than 256 levels"):
            parse_vnnlib(nested(depth))


@pytest.mark.parametrize(
    "term, message",
    [
        ("(<= X_0 1e999)", "non-finite number '1e999'"),
        ("(>= X_0 -1E400)", "non-finite number '-1E400'"),
        ("(<= X_0 infinity)", "non-finite number 'infinity'"),
        ("(<= X_0 NaN)", "non-finite number 'NaN'"),
        ("(<= (* 1e200 1e200 X_0) 1.0)", "coefficient overflows"),
        ("(<= (- X_0 1.7e308) 1.7e308)", "coefficient overflows"),
        # an overflowing atom after a trivially false one in its disjunct
        (
            "(and (>= X_0 0) (<= X_0 1)"
            " (or (<= Y_0 0) (and (<= 1 0) (<= (* 1e200 1e200 X_0) 1))))",
            "coefficient overflows",
        ),
    ],
)
def test_non_finite_numbers_rejected(term, message):
    text = "(declare-const X_0 Real)(declare-const Y_0 Real)" f"(assert {term})"
    with pytest.raises(SpecError, match=message):
        to_dnf(parse_vnnlib(text))


@pytest.mark.parametrize("literal", ["1_0", "1_000.5", "\u0663", "\uff11", "1\u0660", "1e1_0"])
def test_non_ascii_and_underscore_literals_rejected(literal):
    # float() accepts all of these; an SMT-LIB decimal is ASCII digits only
    text = "(declare-const X_0 Real)(declare-const Y_0 Real)" f"(assert (<= X_0 {literal}))"
    with pytest.raises(SpecError, match="unexpected token"):
        parse_vnnlib(text)


@pytest.mark.parametrize("name", ["X_٠", "X_٣", "Y_０", "X_1٠"])
def test_non_ascii_digits_in_variable_names_rejected(name):
    # \d matches every script's digits: X_٠ used to declare X_0
    text = f"(declare-const {name} Real)(declare-const Y_0 Real)(assert (<= X_0 1.0))"
    with pytest.raises(SpecError, match="variable name must be X_<i> or Y_<j>"):
        parse_vnnlib(text)
    with pytest.raises(SpecError, match="unexpected token"):
        parse_vnnlib(
            "(declare-const X_0 Real)(declare-const Y_0 Real)"
            f"(assert (<= {name} 1.0))"
        )


def _strict_json(text):
    """json.loads that refuses the non-standard Infinity and NaN."""
    return json.loads(text, parse_constant=lambda c: pytest.fail("non-JSON " + c))


_LITERALS = st.sampled_from(
    ["1", "-2.5", "0", "1e308", "-1e308", "1e-320", "1e999", "inf", "nan", "1_0"]
) | st.floats().map(repr)
_EXPRS = st.recursive(
    _LITERALS | st.sampled_from(["X_0", "X_1", "Y_0", "Y_1"]),
    lambda inner: st.tuples(
        st.sampled_from(["+", "-", "*"]), st.lists(inner, min_size=1, max_size=3)
    ).map(lambda t: "(%s)" % " ".join([t[0], *t[1]])),
    max_leaves=4,
)
_TERMS = st.recursive(
    st.tuples(st.sampled_from(["<=", ">=", "<"]), _EXPRS, _EXPRS).map(
        lambda t: "(%s %s %s)" % t
    ),
    lambda inner: st.tuples(
        st.sampled_from(["and", "or"]), st.lists(inner, min_size=1, max_size=3)
    ).map(lambda t: "(%s)" % " ".join([t[0], *t[1]])),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(_TERMS, max_size=3),
    depth=st.integers(0, 3) | st.sampled_from([250, 300, 600]),
    noise=st.sampled_from(["", "(", ")", "(not", "(assert (= X_0 1))"]) | st.text(max_size=4),
)
def test_parse_and_dnf_raise_only_spec_error(terms, depth, noise):
    text = "(declare-const X_0 Real)(declare-const X_1 Real)(declare-const Y_0 Real)"
    text += "(declare-const Y_1 Real)(assert (and (>= X_0 -1) (<= X_0 1)))"
    text += "(assert (and (>= X_1 -1) (<= X_1 1)))"
    text += "".join(f"(assert {'(or ' * depth}{t}{')' * depth})" for t in terms) + noise
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # strict '<' warns
            spec = to_dnf(parse_vnnlib(text))
    except SpecError:
        return
    _strict_json(spec.dumps())


# -- pinned outputs of the reader and the normal form ------------------------

PROPS = Path(__file__).resolve().parent / "fixtures" / "acasxu" / "props"
PROP_DUMP_SHA256 = {
    "prop_1": "1b74f08a56c05ec057cfb23a61a47f80ab6f293d3560ddc31206fd35ff3c8824",
    "prop_2": "61dcbb01ef4de0c4b3999f23af93edc2fa4816fa4f11284bade93e81b1ce7c4a",
    "prop_3": "b6df4bf729555f482fbc5b9ffe29ab54e31e01bd3eb8e55308c774d227de2495",
    "prop_4": "cb0b08a68493c36649d864afb59e09cc4161cb6752af4997e8d216795612e10f",
    "prop_5": "04ba19837b2423430ad4bb555658968471465f0c892f5b9d35273dec3584614b",
    "prop_6": "a6c4c8a40418b93e7d8a8f1f4238c687fcdb5258d02f4266ca719f388cefcd5b",
    "prop_7": "dcfc0592f283f93804849b5b8fdcae3b001a7a407e08a5dd62fb18c50627556d",
    "prop_8": "4df6c823047a393df416c2d5573ee80c7d8d61abc6619520bb5513d7bc67f6dc",
    "prop_9": "a23c73759dc4db873226a90af7bed01b648827c8a93d82ca86ba2c960cb55ffb",
    "prop_10": "33ea301be111f3e52e96a0afe853d8cb7253c7b019422cc3302a9cc5bc7add50",
}


@pytest.mark.parametrize("name", sorted(PROP_DUMP_SHA256))
def test_acas_prop_dumps_pinned(name):
    text = (PROPS / f"{name}.vnnlib").read_text(encoding="utf-8")
    digest = hashlib.sha256(to_dnf(parse_vnnlib(text)).dumps().encode()).hexdigest()
    assert digest == PROP_DUMP_SHA256[name]


_DECLS = "(declare-const X_0 Real)(declare-const Y_0 Real)"


@pytest.mark.parametrize(
    "text, message",
    [
        (_DECLS + "\n(assert (<= X_0 1)\n", "unbalanced '(' (line 2, column 1)"),
        (_DECLS + "\n(assert (<= X_0 1)))\n", "unbalanced ')' (line 2, column 20)"),
        (
            _DECLS + "(assert " + "(and " * 300 + "(>= X_0 0))" + ")" * 300,
            "nested deeper than 256 levels (line 1, column 1332)",
        ),
        (
            "(declare-const X_0 Real)\r\n(declare-const Y_0 Real)\r\n"
            "  (assert (<= X_0 foo))\r\n",
            "unexpected token 'foo' (line 3, column 19)",
        ),
        (_DECLS + "\n\t(assert\t(<= X_0\t@))", "unexpected token '@' (line 2, column 18)"),
        (
            _DECLS + " ; a comment (with parens\n  (assert (<= Y_7 1))",
            "undeclared variable Y_7 (line 2, column 15)",
        ),
        (_DECLS + "\n(assert (<= X_0 \u0663))", "unexpected token '\u0663' (line 2, column 17)"),
        (_DECLS + "\n\n   (assert (>= Y_0 Y_1))", "undeclared variable Y_1 (line 3, column 20)"),
    ],
    ids=["open", "close", "deep", "crlf", "tab", "after-comment", "non-ascii", "undeclared"],
)
def test_error_text_and_position_pinned(text, message):
    with pytest.raises(SpecError) as excinfo:
        to_dnf(parse_vnnlib(text))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _DECLS + "\n (declare-const X_" + "1" * 5000 + " Real)",
            "variable index of 5000 digits is too long (line 2, column 17)",
        ),
        (
            _DECLS + "\n(assert (<= Y_" + "0" * 5000 + " 1))",
            "variable index of 5000 digits is too long (line 2, column 13)",
        ),
    ],
    ids=["declaration", "use"],
)
def test_variable_index_too_long_for_int_is_a_spec_error(text, message):
    # int() refuses more than 4,300 digits with a bare ValueError
    with pytest.raises(SpecError) as excinfo:
        parse_vnnlib(text)
    assert str(excinfo.value) == message


def test_strict_warning_names_its_line():
    with pytest.warns(UserWarning) as record:
        parse_vnnlib(_DECLS + "\n; c\n\n(assert (< X_0 1))")
    assert [str(w.message) for w in record] == ["strict '<' at line 4 treated as non-strict"]


@pytest.mark.parametrize("reader", ["parse_vnnlib", "load_spec"])
@pytest.mark.parametrize(
    "term", ["(< Y_0 0.5)", "(or (and (< Y_0 0.5)))"], ids=["flat", "nested"]
)
def test_strict_warning_names_the_caller(reader, term, tmp_path):
    # a fixed stacklevel once named speclang.py for an atom nested in (or (and))
    text = _DECLS + f"(assert (>= X_0 0))(assert (<= X_0 1))(assert {term})"
    path = tmp_path / "spec.vnnlib"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_vnnlib(text) if reader == "parse_vnnlib" else load_spec(path)
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


_TWELVE_ORS = "".join(f"(or (<= Y_0 {k}) (>= Y_0 {k + 1}))" for k in range(12))


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        (_DECLS + "\n(assert (<= X_0 ()))", "expected operator", 2, 17),
        (_DECLS + "\n(assert (<= X_0 (+)))", "operator '+' needs arguments", 2, 17),
        (_DECLS + "\n(assert (<= X_0 (/ 1 2)))", "unsupported operator '/'", 2, 17),
        (_DECLS + "\n(assert X_0)", "expected boolean term, got 'X_0'", 2, 9),
        (_DECLS + "\n(assert (()))", "expected boolean operator", 2, 9),
        (_DECLS + "\n(assert (and))", "empty (and)", 2, 9),
        (_DECLS + "\n(assert (<= X_0))", "'<=' takes exactly two arguments", 2, 9),
        (_DECLS + "\n(assert (not (<= X_0 1)))", "unsupported operator 'not'", 2, 9),
        (_DECLS + "\n()", "expected command", 2, 1),
        (_DECLS + "\n(declare-const X_1)", "malformed declare-const", 2, 1),
        (_DECLS + "\n(declare-const X_1 Int)", "only Real declarations are supported", 2, 1),
        (_DECLS + "\n(assert (<= X_0 1) (<= X_0 2))", "assert takes one term", 2, 1),
        (_DECLS + "\n(check-sat)", "unsupported command 'check-sat'", 2, 1),
        # 2**12 disjuncts from the and, then one more from the or
        (
            _DECLS + "\n(assert (or (and " + _TWELVE_ORS + ") (<= Y_0 0)))",
            "specification too disjunctive",
            None,
            None,
        ),
    ],
    ids=[
        "expr-no-operator", "operator-no-arguments", "expr-operator", "bare-term",
        "term-no-operator", "empty-and", "arity", "bool-operator", "non-command",
        "malformed-declare-const", "non-real-declare-const", "assert-two-terms",
        "command", "or-past-max-disjuncts",
    ],
)
def test_every_refusal_names_its_place(text, message, line, col):
    with pytest.raises(SpecError) as excinfo:
        to_dnf(parse_vnnlib(text))
    err = excinfo.value
    assert (err.line, err.col) == (line, col)
    where = "" if line is None else " (line %d, column %d)" % (line, col)
    assert str(err) == message + where
