"""Expression parser and evaluator tests."""

import configparser
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infxlap.config import load_problem
from infxlap.expressions import (BinOp, Call, DomainError, Neg, Num,
                                 ParseError, Var, evaluate, parse)
from infxlap.grid import build_grid

ROOT = Path(__file__).resolve().parent.parent


def reference_evaluate(e, x, y):
    """The scalar evaluator that ``evaluate`` replaced: one Python call per
    node and point, ``math`` throughout.  Sampled fields must match it
    bit for bit, and fail with its error at its first failing node."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x) if e.name == "x" else float(y)
    if isinstance(e, Neg):
        return -reference_evaluate(e.arg, x, y)
    if isinstance(e, BinOp):
        a = reference_evaluate(e.left, x, y)
        b = reference_evaluate(e.right, x, y)
        if e.op == "+":
            v = a + b
        elif e.op == "-":
            v = a - b
        elif e.op == "*":
            v = a * b
        elif e.op == "/":
            if b == 0.0:
                raise DomainError("division by zero", e)
            v = a / b
        else:  # ^
            try:
                v = math.pow(a, b)
            except (ValueError, OverflowError):
                raise DomainError("undefined power", e) from None
        if not math.isfinite(v):
            raise DomainError("non-finite result", e)
        return v
    vals = [reference_evaluate(a, x, y) for a in e.args]
    if e.name == "log":
        if vals[0] <= 0.0:
            raise DomainError("log of nonpositive value", e)
        v = math.log(vals[0])
    elif e.name == "sqrt":
        if vals[0] < 0.0:
            raise DomainError("sqrt of negative value", e)
        v = math.sqrt(vals[0])
    elif e.name == "sin":
        v = math.sin(vals[0])
    elif e.name == "cos":
        v = math.cos(vals[0])
    elif e.name == "exp":
        try:
            v = math.exp(vals[0])
        except OverflowError:
            raise DomainError("exp overflow", e) from None
    elif e.name == "abs":
        v = abs(vals[0])
    elif e.name == "min":
        v = min(vals)
    else:  # max
        v = max(vals)
    if not math.isfinite(v):
        raise DomainError("non-finite result", e)
    return v


def reference_sample(e, grid):
    """Row-major loop of :func:`reference_evaluate` over the nodes: the
    field, or ((i, j), error) at the first node that raises."""
    out = np.empty(grid.shape)
    for j, y in enumerate(grid.ys):
        for i, x in enumerate(grid.xs):
            try:
                out[j, i] = reference_evaluate(e, x, y)
            except DomainError as exc:
                return (i, j), exc
    return out


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestParse:
    def test_sum(self):
        assert evaluate(parse("x+y"), 1, 2) == 3

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0, 0) == 512

    def test_sin_pi_half(self):
        assert evaluate(parse("sin(pi/2)"), 0, 0) == 1.0

    def test_trailing_operator_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x+")
        assert exc.value.position == 2

    @pytest.mark.parametrize("text, position", [("x)", 1), ("(x", 2),
                                                ("#", 0), ("1.2.3", 0)])
    def test_error_offset(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo")

    def test_unknown_call_arity(self):
        with pytest.raises(ParseError):
            parse("sin(x, y)")
        with pytest.raises(ParseError):
            parse("min(x)")

    def test_scientific_literals(self):
        assert evaluate(parse("1e-3"), 0, 0) == 1e-3
        assert evaluate(parse("2.5E+2"), 0, 0) == 250.0

    def test_precedence(self):
        assert evaluate(parse("1+2*3"), 0, 0) == 7
        assert evaluate(parse("-2^2"), 0, 0) == -4  # unary binds looser than ^

    def test_whitespace_insignificant(self):
        assert evaluate(parse(" x *  ( y+ 1 ) "), 2, 3) == 8


class TestEvaluate:
    def test_constant_fold_like(self):
        assert evaluate(parse("1+0*x"), 5, 7) == 1

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("log(x)"), 0, 0)

    def test_affine(self):
        assert evaluate(parse("x*y - y"), 3, 2) == 4

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), -1, 0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x"), 0, 0)

    def test_bad_power(self):
        with pytest.raises(DomainError):
            evaluate(parse("(-1)^0.5"), 0, 0)

    def test_overflow_reported(self):
        with pytest.raises(DomainError):
            evaluate(parse("exp(x)"), 1e9, 0)

    def test_min_max(self):
        assert evaluate(parse("min(x, y)"), 3, -2) == -2
        assert evaluate(parse("max(x, y)"), 3, -2) == 3

    def test_callable_protocol(self):
        e = parse("x - 2*y")
        assert e(10, 3) == 4

    def test_point_gives_python_float(self):
        assert type(evaluate(parse("x^2/4"), 3, 0)) is float
        assert type(parse("2")(0, 0)) is float

    def test_overflowing_literal_is_a_domain_error(self):
        with pytest.raises(DomainError, match="non-finite result"):
            evaluate(parse("1e999"), 0, 0)


class TestSampleArrays:
    """``Grid2D.sample`` walks the tree once on the node arrays."""

    def test_min_max_keep_first_argument_on_a_tie(self):
        # at x = 0, -x is -0.0: Python's min and max keep their first
        # argument on a tie, which np.minimum / np.maximum need not
        g = build_grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
        for text in ("min(x, -x)", "max(x, -x)", "min(-x, x)", "max(-x, x)"):
            got = g.sample(parse(text))
            ref = reference_sample(parse(text), g)
            assert np.array_equal(bits(got), bits(ref)), text
        assert not np.signbit(g.sample(parse("min(x, -x)"))[0, 2])
        assert np.signbit(g.sample(parse("max(-x, x)"))[0, 2])

    def test_transcendentals_match_math(self):
        g = build_grid(1.1, 3.7, -2.3, 1.9, 41, 37)
        e = parse("exp(x*y) + log(x)^1.7 - sin(3*y) * cos(x^2) + x^(-y)")
        assert np.array_equal(bits(g.sample(e)), bits(reference_sample(e, g)))

    def test_constant_fills_the_grid(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 4, 5)
        out = g.sample(parse("2^0.5"))
        assert out.shape == g.shape and np.all(out == math.sqrt(2.0))
        out[0, 0] = 0.0                      # a fresh, writable array

    def test_first_failing_node_named(self):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        with pytest.raises(DomainError) as exc:
            g.sample(parse("sqrt(y - 0.5) + log(0.5 - x)"))
        # sqrt fails on every node of row j = 0, log only from i = 4 on
        assert exc.value.grid_node == ((0, 0), (0.0, 0.0))
        assert str(exc.value) == ("sqrt of negative value in "
                                  "'sqrt((y-0.5))' at node (i=0, j=0), "
                                  "(x=0, y=0)")

    def test_failure_order_within_a_node(self):
        # at x = 0.5 both operands fail; the left one is named
        g = build_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
        e = parse("log(0.5 - x) + 1/(x - 0.5)")
        with pytest.raises(DomainError) as exc:
            g.sample(e)
        assert exc.value.grid_node == ((2, 0), (0.5, 0.0))
        assert str(exc.value.node) == "log((0.5-x))"


# -- random trees: print/parse round trip, and sampling against the
# -- reference evaluator --------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=5.0).map(Num),
    st.sampled_from(["x", "y"]).map(Var),
)


def _branch(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "abs", "log", "exp", "sqrt"]),
                  children).map(lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))),
    )


_tree = st.recursive(_leaf, _branch, max_leaves=20)


def _outcome(f, *args):
    """f(*args), or the message of the DomainError it raises."""
    try:
        return f(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


@settings(max_examples=200)
@given(tree=_tree, x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_roundtrip_print_parse(tree, x, y):
    """Pretty-print then re-parse yields an evaluation-equivalent tree."""
    reparsed = parse(str(tree))
    a = _outcome(evaluate, tree, x, y)
    b = _outcome(evaluate, reparsed, x, y)
    if isinstance(a, str):
        assert a == b
    else:
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=100)
@given(tree=_tree, x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_parenthesization_invariant(tree, x, y):
    s = str(tree)
    assert (_outcome(evaluate, parse("(" + s + ")"), x, y)
            == _outcome(evaluate, parse(s), x, y))


# small grids with nodes on x = 0 and y = 0, where -x and -y are -0.0
_GRIDS = [build_grid(-1.0, 1.0, -1.0, 1.0, 5, 5),
          build_grid(-2.0, 1.0, 0.0, 3.0, 4, 4),
          build_grid(0.0, 1.0, -1.5, 0.5, 5, 5)]


@settings(max_examples=300)
@given(tree=_tree, grid=st.sampled_from(_GRIDS))
def test_sample_matches_reference(tree, grid):
    """Every node bit for bit, or the reference's error at its first
    failing node (row-major), with that node named."""
    ref = reference_sample(tree, grid)
    if isinstance(ref, np.ndarray):
        assert np.array_equal(bits(grid.sample(tree)), bits(ref))
        return
    (i, j), err = ref
    x, y = grid.xs[i], grid.ys[j]
    with pytest.raises(DomainError) as exc:
        grid.sample(tree)
    assert exc.value.node == err.node
    assert exc.value.grid_node == ((i, j), (x, y))
    assert str(exc.value) == f"{err} at node (i={i}, j={j}), (x={x:g}, y={y:g})"
    # a point evaluation there fails the same way
    assert _outcome(evaluate, tree, x, y) == f"DomainError: {err}"


@settings(max_examples=300)
@given(tree=_tree, x=st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0]),
       y=st.sampled_from([0.0, -0.0, 1.0, -2.0]))
def test_point_matches_reference(tree, x, y):
    ref = _outcome(reference_evaluate, tree, x, y)
    got = _outcome(evaluate, tree, x, y)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert bits(got) == bits(ref)


def _shipped_configs():
    return sorted((ROOT / "configs").glob("*.ini")) + sorted(
        (ROOT / "perfbench" / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", _shipped_configs(), ids=lambda p: p.name)
def test_shipped_config_fields_match_reference(path):
    """load_problem samples frame, exponent and boundary data of every
    shipped config with the bits of the reference evaluator."""
    spec = load_problem(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path)
    fields = {("frame", f"a{r + 1}{c + 1}"): spec.frame.a[..., r, c]
              for r in (0, 1) for c in (0, 1)}
    fields[("exponent", "p")] = spec.p
    fields[("boundary", "f")] = spec.f
    for (section, key), got in fields.items():
        ref = reference_sample(parse(cp.get(section, key)), spec.grid)
        assert isinstance(ref, np.ndarray), f"{section}.{key}"
        assert np.array_equal(bits(got), bits(ref)), f"{section}.{key}"


def test_shipped_configs_found():
    assert len(_shipped_configs()) >= 6
