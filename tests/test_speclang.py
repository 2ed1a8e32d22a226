import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veribench.speclang import (
    DEFAULT_MAX_DISJUNCTS,
    SpecError,
    UNBOUNDED_MAGNITUDE,
    eval_spec,
    parse_vnnlib,
    to_dnf,
)

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
    assert conj.input_lower == (-0.015,)
    assert conj.input_upper == (2000.0,)


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
    (m,) = conj.constraints
    # 2 y - x + 1 <= 6  ->  2 y - x <= 5
    assert m.a_y == (2.0,)
    assert m.b_x == (-1.0,)
    assert m.rhs == 5.0


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
    assert conj.input_lower == (0.0,)
    assert conj.input_upper == (1.0,)


# -- to_dnf -----------------------------------------------------------------


def test_single_conjunct_folding():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 2.0))"
    )
    spec = to_dnf(parse_vnnlib(text))
    assert spec.n_inputs == 1 and spec.n_outputs == 1
    (conj,) = spec.disjuncts
    assert conj.input_lower == (0.0,)
    assert conj.input_upper == (1.0,)
    (m,) = conj.constraints
    # Y_0 >= 2 normalized to -Y_0 <= -2
    assert m.a_y == (-1.0,)
    assert m.b_x == (0.0,)
    assert m.rhs == -2.0


def test_or_distributes_box_into_both_disjuncts():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)(declare-const Y_1 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (or (>= Y_0 2.0) (<= Y_1 -1.0)))"
    )
    spec = to_dnf(parse_vnnlib(text))
    assert len(spec.disjuncts) == 2
    for conj in spec.disjuncts:
        assert conj.input_lower == (0.0,)
        assert conj.input_upper == (1.0,)
        assert len(conj.constraints) == 1


def test_or_without_box_is_unbounded_error():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (or (>= Y_0 2.0) (<= Y_0 -1.0)))"
    )
    with pytest.raises(SpecError, match="unbounded input dimension"):
        to_dnf(parse_vnnlib(text))
    spec = to_dnf(parse_vnnlib(text), allow_unbounded=True)
    for conj in spec.disjuncts:
        assert conj.input_lower == (-UNBOUNDED_MAGNITUDE,)
        assert conj.input_upper == (UNBOUNDED_MAGNITUDE,)


def test_tightest_bound_wins():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (>= X_0 0.25))"
        "(assert (<= X_0 1.0))(assert (<= X_0 0.75))"
        "(assert (>= Y_0 0.0))"
    )
    (conj,) = to_dnf(parse_vnnlib(text)).disjuncts
    assert conj.input_lower == (0.25,)
    assert conj.input_upper == (0.75,)


def test_empty_box_conjunct_dropped():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= Y_0 0.0))"
        "(assert (or (and (>= X_0 2.0) (<= X_0 1.0)) (and (>= X_0 0.0) (<= X_0 1.0))))"
    )
    spec = to_dnf(parse_vnnlib(text))
    assert len(spec.disjuncts) == 1
    assert spec.disjuncts[0].input_lower == (0.0,)


def test_constant_atoms_fold():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (or (and (<= 1.0 0.0) (>= Y_0 5.0)) (and (<= 0.0 1.0) (>= Y_0 2.0))))"
    )
    spec = to_dnf(parse_vnnlib(text))
    # first branch is trivially false, second keeps only the Y atom
    assert len(spec.disjuncts) == 1
    (m,) = spec.disjuncts[0].constraints
    assert m.rhs == -2.0


def test_pure_input_multivar_atom_kept_as_constraint():
    text = (
        "(declare-const X_0 Real)(declare-const X_1 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        "(assert (>= X_1 0.0))(assert (<= X_1 1.0))"
        "(assert (<= (+ X_0 X_1) 1.5))(assert (>= Y_0 0.0))"
    )
    (conj,) = to_dnf(parse_vnnlib(text)).disjuncts
    kinds = sorted(tuple(m.a_y) for m in conj.constraints)
    assert len(conj.constraints) == 2
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
    # an explicit higher cap lets it through
    spec = to_dnf(parse_vnnlib(text), max_disjuncts=2 * DEFAULT_MAX_DISJUNCTS)
    assert len(spec.disjuncts) == 8192


def test_determinism_byte_identical_dump():
    text = MINIMAL + "(assert (or (<= Y_0 0.25) (>= Y_0 0.75)))"
    a = to_dnf(parse_vnnlib(text)).dumps()
    b = to_dnf(parse_vnnlib(text)).dumps()
    assert a == b
    json.loads(a)  # dump is valid JSON


# -- eval_spec ----------------------------------------------------------------


@pytest.fixture
def box_spec():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 2.0))"
    )
    return to_dnf(parse_vnnlib(text))


def test_eval_boundary_satisfied(box_spec):
    assert eval_spec(box_spec, [0.5], [2.0], tol=0.0) is True


def test_eval_tolerance_slack(box_spec):
    assert eval_spec(box_spec, [0.5], [1.999999], tol=1e-6) is True
    assert eval_spec(box_spec, [0.5], [1.999999], tol=0.0) is False


def test_eval_outside_box(box_spec):
    assert eval_spec(box_spec, [1.5], [3.0], tol=0.0) is False


def test_eval_dimension_mismatch(box_spec):
    with pytest.raises(ValueError, match="expected 1 inputs"):
        eval_spec(box_spec, [0.5, 0.5], [2.0])
    with pytest.raises(ValueError, match="expected 1 outputs"):
        eval_spec(box_spec, [0.5], [2.0, 2.0])


def test_eval_relative_mode_scales_slack():
    text = (
        "(declare-const X_0 Real)(declare-const Y_0 Real)"
        "(assert (>= X_0 0.0))(assert (<= X_0 1.0))(assert (>= Y_0 1000000.0))"
    )
    spec = to_dnf(parse_vnnlib(text))
    y = [1000000.0 * (1 - 1e-7)]
    assert eval_spec(spec, [0.5], y, tol=1e-6) is False
    assert eval_spec(spec, [0.5], y, tol=1e-6, relative=True, abs_floor=1e-9)


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
            assert ast.evaluate(x, y) == eval_spec(spec, x, y)


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
            if eval_spec(spec, x, y):
                assert ast.evaluate(x, y)


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
    assert eval_spec(spec, [x], [y]) == expected
