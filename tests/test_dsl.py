"""DSL parsing, printing, and round-trips."""

import re
import string
import time
from dataclasses import dataclass
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from mvop.exactalg import FracMat, Poly, X
from mvop.diffop import DiffOp, MatPoly, compose, embed_scalar, op_power
from mvop.weights import Jacobi, Laguerre, Weight
from mvop import dsl
from mvop.dsl import (
    ParseError,
    SpecDocument,
    op_scalar_str,
    op_str,
    parse_spec,
    print_document,
)


class TestParsing:
    def test_scalar_weight(self):
        doc = parse_spec("weight w = laguerre(alpha=1/2)\n")
        assert doc.weights["w"] == Laguerre(F(1, 2)).scalar_weight()

    def test_zero_operator_normal_form(self):
        doc = parse_spec("op Z = d^0*[0]\n")
        assert doc.ops["Z"].is_zero

    def test_jac2_ladder_display(self):
        # the first-order factor of the 2x2 Jacobi-type example
        text = (
            "param kappa = 1/4\n"
            "param alpha = 1/2\n"
            "param beta = 3/4\n"
            "op V = d^1*[x-1, 2; 0, 1+x]"
            " + [kappa, 0; kappa-alpha-1, alpha+beta-kappa+2]\n"
        )
        doc = parse_spec(text)
        from mvop.catalog import entry

        assert doc.ops["V"] == entry("JAC2").ops["V"]

    def test_parameters_substituted_at_parse(self):
        doc = parse_spec("param c = 2/3\nop T = d^1*(c*x) + c^2\n")
        t = doc.ops["T"]
        assert t.coeff(1).entry(0, 0) == F(2, 3) * X
        assert t.coeff(0).entry(0, 0) == Poly((F(4, 9),))

    def test_param_override(self):
        doc = parse_spec("param c = 1\nop T = d^0*(c)\n", {"c": F(5)})
        assert doc.ops["T"].coeff(0).entry(0, 0) == Poly((5,))

    def test_dsum(self):
        text = (
            "weight w1 = laguerre(alpha=1/2)\n"
            "weight w2 = laguerre(alpha=3/2)\n"
            "weight W = dsum(w1, w2)\n"
        )
        doc = parse_spec(text)
        assert doc.weights["W"].size == 2

    def test_weight_with_matrix_factor(self):
        doc = parse_spec("weight w = jacobi(alpha=1/2, beta=3/4) * [1, 0; 0, 1+x]\n")
        w = doc.weights["w"]
        assert w.N.entry(1, 1) == Poly((1, 1)) and w.m == Poly((1,))

    def test_constant_division(self):
        doc = parse_spec("param a = 2\nop T = d^0*(x/a + 1/a)\n")
        assert doc.ops["T"].coeff(0).entry(0, 0) == Poly((F(1, 2), F(1, 2)))

    def test_comments_and_blank_lines(self):
        doc = parse_spec("# leading comment\n\nparam a = 1  # trailing\n")
        assert doc.params["a"] == 1

    def test_multiline_matrix(self):
        doc = parse_spec("op T = d^1*[x, 0;\n 0, x]\n")
        assert doc.ops["T"].order == 1


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("op T = d^*2\n")
        assert exc.value.line == 1 and exc.value.col >= 9

    def test_unbound_name(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("op T = d^1*(gamma)\n")
        assert "unbound" in str(exc.value)

    def test_unknown_entry(self):
        with pytest.raises(ParseError, match="column 13: unknown catalog entry 'NOSUCH'"):
            parse_spec("check entry(NOSUCH)\n")
        # the names are the catalog's, in upper case
        with pytest.raises(ParseError, match="unknown catalog entry 'jac2'"):
            parse_spec("check entry(jac2)\n")
        assert [c.args[0].value for c in parse_spec("check entry(JAC2)\ncheck entry(LAG2DIAG)\n").checks] == [
            "JAC2",
            "LAG2DIAG",
        ]

    def test_parameter_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("weight w = laguerre(alpha=-2)\n")
        assert "exceed -1" in str(exc.value)

    def test_reserved_word(self):
        with pytest.raises(ParseError):
            parse_spec("param d = 1\n")

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_spec("param a = 1\nparam a = 2\n")

    def test_division_by_zero(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("op T = d^0*(x/0)\n")
        assert "zero" in str(exc.value)

    def test_division_by_non_constant(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("op T = d^0*(1/x)\n")
        assert "non-constant" in str(exc.value)

    def test_nonsquare_matrix(self):
        with pytest.raises(ParseError):
            parse_spec("op T = d^0*[1, 2]\n")

    def test_unknown_check_kind(self):
        with pytest.raises(ParseError):
            parse_spec("check frobnicate(x)\n")

    @pytest.mark.parametrize(
        "line, message, col",
        [
            # used to run silently with nmax=4
            ("check in_algebra(D, w, nmax=3, nmax=4)", "repeated option 'nmax'", 32),
            # used to be reported as too many arguments for in_algebra
            ("check in_algebra(D, w, foo=3)", "unknown option 'foo' for in_algebra", 24),
            ("check classify(w, w, nmax=3)", "unknown option 'nmax' for classify", 22),
        ],
    )
    def test_bad_check_option(self, line, message, col):
        text = "weight w = laguerre(alpha=1/2)\nop D = d^1\n" + line + "\n"
        with pytest.raises(ParseError) as exc:
            parse_spec(text)
        assert message in str(exc.value)
        assert (exc.value.line, exc.value.col) == (3, col)

    def test_check_arity(self):
        with pytest.raises(ParseError):
            parse_spec("weight w = laguerre(alpha=1/2)\ncheck classify(w)\n")

    @pytest.mark.parametrize(
        "template",
        [
            "op T = d^{n}\n",
            "op T = d^1*x^{n}\n",
            "param a = 2^{n}\n",
            "weight w = laguerre(alpha=1/2)\nop T = d^1\ncheck in_algebra(T, w, nmax={n})\n",
            "weight w1 = laguerre(alpha=1/2)\nweight w2 = laguerre(alpha=3/2)\n"
            "op T = d^1 - 1\ncheck intertwine(T, w1, w2, nmax={n})\n",
            "check search(laguerre(alpha=1/2), laguerre(alpha=3/2), order={n})\n",
            "check search(laguerre(alpha=1/2), laguerre(alpha=3/2), order=1, horizon={n})\n",
            "op T = (d^1)^{n}\n",
        ],
        ids=["d-order", "x-exponent", "const-exponent", "in-algebra-nmax", "intertwine-nmax",
             "search-order", "search-horizon", "op-exponent"],
    )
    def test_limit_plus_one_refused(self, template):
        from mvop.dsl import LIMIT

        parse_spec(template.format(n=LIMIT))
        with pytest.raises(ParseError, match=f"{LIMIT + 1} outside 0..{LIMIT}"):
            parse_spec(template.format(n=LIMIT + 1))

    @pytest.mark.parametrize(
        "nest",
        [lambda k: "(" * k + "1" + ")" * k, lambda k: "-" * k + "1"],
        ids=["parentheses", "prefix-minus"],
    )
    def test_nesting_beyond_limit_refused(self, nest):
        # each level recurses in the parser; 400 levels used to raise
        # RecursionError instead of a ParseError
        from mvop.dsl import LIMIT

        assert parse_spec(f"param a = 2*{nest(LIMIT)}\n").params == {"a": F(2)}
        # the refused token is the (LIMIT + 1)-th, after the 12 characters
        # of "param a = 2*"
        with pytest.raises(ParseError, match=f"column {13 + LIMIT}: expression nested deeper than {LIMIT}"):
            parse_spec(f"param a = 2*{nest(LIMIT + 1)}\n")

    @pytest.mark.parametrize("text", ["(x^8)^8", "(2^64)^63", "((x + 1)^8)^8", "(1/3)^64"])
    def test_bounded_powers_accepted(self, text):
        parse_spec(f"op T = d^1*[{text}]\n")

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("(x^8)^9", "power of degree 72 exceeds 64", 18),
            ("((x + 1)^64)^64", "power of degree 4096 exceeds 64", 25),
            ("((2^64)^64)^64", "power of 65-bit coefficients to 64 exceeds 4096 bits", 20),
            ("(((2^64)^64)^64)^16", "power of 65-bit coefficients to 64 exceeds 4096 bits", 21),
        ],
    )
    def test_nested_powers_refused(self, text, message, col):
        # nested powers multiply degrees and coefficient sizes; the bound is
        # checked at the refused '^' before the power is computed
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"column {col}: {message}"):
            parse_spec(f"op T = d^1*[{text}]\n")
        assert time.perf_counter() - start < 1

    def test_literal_bit_bound(self):
        # the bound that products and powers have, at the literal's token;
        # leading zeros do not count
        assert parse_spec(f"param a = 000{2**4096 - 1}\n").params["a"] == 2**4096 - 1
        with pytest.raises(ParseError, match="column 11: integer literal exceeds 4096 bits"):
            parse_spec(f"param a = {2**4096}\n")

    @pytest.mark.parametrize("text", ["param a\u0663 = 1\n", "param \u00e9 = 1\n", "param a = 1\u00b2\n"])
    def test_non_ascii_refused(self, text):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_spec(text)

    def test_slack_option_removed(self):
        # the search's ansatz holds every intertwiner, so it has no slack
        with pytest.raises(ParseError, match="line 1, column 65: unknown option 'slack' for search"):
            parse_spec("check search(laguerre(alpha=1/2), laguerre(alpha=3/2), order=1, slack=1)\n")

    def test_negative_nmax_refused(self):
        with pytest.raises(ParseError, match="nmax -1"):
            parse_spec("weight w = laguerre(alpha=1/2)\nop T = d^1\ncheck in_algebra(T, w, nmax=-1)\n")

    def test_search_requires_order(self):
        with pytest.raises(ParseError):
            parse_spec(
                "check search(laguerre(alpha=1/2), laguerre(alpha=3/2))\n"
            )


_W = "weight w = laguerre(alpha=1/2)\nweight v = jacobi(alpha=1, beta=2)\n"
_AB = "op A = d^1*[x, 1; 0, x] + [1, 0; x, 2]\nop B = d^2*[0, 1; 1, 0] + [x, 0; 0, 1]\n"


def _lift2(t):
    return embed_scalar(t, 2, 0, 0) + embed_scalar(t, 2, 1, 1)


class TestOperatorExpressions:
    """Operator expressions against the library's own operator algebra."""

    def ops(self, text):
        return parse_spec(_W + _AB + text).ops

    def test_sum_and_difference(self):
        ops = self.ops("op S = A + B - A - A\n")
        assert ops["S"] == ops["B"] - ops["A"]

    def test_composition_applies_left_factor_first(self):
        ops = self.ops("op P = A*B\nop Q = B*A\nop R = x*d^1\n")
        assert ops["P"] == compose(ops["A"], ops["B"])
        assert ops["Q"] == compose(ops["B"], ops["A"]) != ops["P"]
        # (P x)' = P' x + P
        assert ops["R"] == DiffOp.scalar([Poly((1,)), X])

    def test_power(self):
        ops = self.ops("op P = A^3\nop Q = (A + B)^2\nop I = A^0\n")
        assert ops["P"] == op_power(ops["A"], 3)
        assert ops["Q"] == op_power(ops["A"] + ops["B"], 2)
        assert ops["I"] == DiffOp.identity(2)

    def test_op_name(self):
        ops = self.ops("op C = A\nop E = 2*C - 1/2*A\n")
        assert ops["C"] == ops["A"]
        assert ops["E"] == F(3, 2) * ops["A"]

    def test_delta_named_and_inline(self):
        ops = self.ops("op L = delta(w)\nop J = delta(jacobi(alpha=1, beta=2))\nop K = delta(v)^2 - delta(v)\n")
        assert ops["L"] == Laguerre(F(1, 2)).delta()
        jac = Jacobi(F(1), F(2)).delta()
        assert ops["J"] == jac
        assert ops["K"] == op_power(jac, 2) - jac

    def test_scalar_lift(self):
        # a 1x1 operator in a 2x2 expression acts as itself times I_2
        ops = self.ops("op T = A*delta(w) + delta(w)*A + (x - d^1) + [1, 2; 3, 4]*3\n")
        t = _lift2(Laguerre(F(1, 2)).delta())
        expected = (
            compose(ops["A"], t)
            + compose(t, ops["A"])
            + _lift2(DiffOp.scalar([X, Poly((-1,))]))
            + DiffOp.const(FracMat([[3, 6], [9, 12]]))
        )
        assert ops["T"] == expected

    def test_matrix_units_place_cells(self):
        # E_ij composed with t I puts t in cell (i, j), from either side
        ops = self.ops("op T = (1 - delta(w))*[0, 1; 0, 0]\nop U = [0, 0; 1, 0]*(d^1*x + 2)\n")
        t = DiffOp.identity(1) - Laguerre(F(1, 2)).delta()
        assert ops["T"] == embed_scalar(t, 2, 0, 1)
        assert ops["U"] == embed_scalar(DiffOp.scalar([Poly((2,)), X]), 2, 1, 0)

    def test_d_power_places_order_zero_factor(self):
        ops = self.ops("op T = d^3*[x, 1; 0, 2]\nop U = d^2*x^2\n")
        m = MatPoly([[X, Poly((1,))], [Poly(), Poly((2,))]])
        assert ops["T"] == DiffOp(2, [MatPoly.zeros(2)] * 3 + [m])
        assert ops["T"] == compose(op_power(DiffOp.ddx(2), 3), DiffOp(2, [m]))
        assert ops["U"] == DiffOp.scalar([Poly(), Poly(), X**2])

    def test_catalog_forms(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        assert e.ops["FD2"] == e.ops["D2"]
        a, b, k = e.params["alpha"], e.params["beta"], e.params["kappa"]
        assert e.ops["FD1"] == e.ops["D1"] - e.ops["D2"] - (a + b + 2 - k) * (1 + k) * DiffOp.identity(2)

    def refused(self, text, token, message):
        """``text`` is refused at the first ``token`` of its last line."""
        last = text.splitlines()[-1]
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_spec(_W + _AB + text)
        assert (exc.value.line, exc.value.col) == (len((_W + _AB + text).splitlines()), last.index(token) + 1)

    def test_product_order_bound(self):
        self.ops("op T = d^40*d^24\n")
        self.refused("op T = d^40*d^25\n", "*", "product of order 65 exceeds 64")

    def test_power_order_bound(self):
        self.ops("op T = (d^8)^8\n")
        self.refused("op T = (d^9 + x)^8\n", "^8", "power of order 72 exceeds 64")

    def test_product_degree_bound(self):
        self.ops("op T = d^1*x^40*x^24\n")
        self.refused("op T = d^1*x^40*x^25\n", "*x^25", "product of degree 65 exceeds 64")
        self.refused("op T = (A*x^32)*(x^32*B)\n", "*(", "product of degree 66 exceeds 64")

    def test_power_degree_bound(self):
        self.refused("op T = (d^1*x^9)^8\n", "^8", "power of degree 72 exceeds 64")

    def test_product_bits_bound(self):
        # (2^64)^63 = 2^4032 has 4033 bits
        text = "param a = (2^64)^63\n"
        self.ops(text + "op T = a*2^62\n")
        self.refused(text + "op T = a*2^63\n", "*", "product of 4033-bit and 64-bit coefficients exceeds 4096 bits")

    def test_unbound_op_name(self):
        self.refused("op T = A + S\n", "S", "unbound name 'S'")

    def test_weight_is_not_an_operator(self):
        self.refused("op T = A*w\n", "w", "weight 'w' is not an operator")

    def test_delta_of_matrix_weight(self):
        text = "weight W = dsum(w, w)\nop T = delta(W)\n"
        self.refused(text, "W", "weight 'W' is not a plain scalar weight")
        self.refused("op T = delta(jacobi(alpha=1, beta=1) * [1, 0; 0, 1])\n", "*", "expected ')'")

    def test_mismatched_sizes(self):
        three = "[1, 0, 0; 0, 1, 0; 0, 0, 1]"
        self.refused(f"op T = A + {three}\n", "+", "operator sizes 2 and 3 differ")
        self.refused(f"op T = {three}*B\n", "*", "operator sizes 3 and 2 differ")

    def test_operator_in_polynomial_position(self):
        self.refused("op T = [d^1, 0; 0, 1]\n", "d^1", "a matrix entry must be a polynomial")
        self.refused("op T = d^1/A\n", "/", "division by a non-constant expression")
        self.refused("param p = 1 + A\n", "1", "expected a constant expression")

    def test_delta_is_reserved(self):
        self.refused("param delta = 1\n", "delta", "'delta' is a reserved word")

    @pytest.mark.parametrize("open_, close", [("(", ")"), ("[", "]")])
    def test_operator_nesting_bound(self, open_, close):
        # a matrix inside a matrix is refused, but only after its brackets
        # are parsed, so they count toward the nesting bound like parentheses
        from mvop.dsl import LIMIT

        if open_ == "(":
            parse_spec(f"op T = {open_ * LIMIT}d^1{close * LIMIT}\n")
        with pytest.raises(ParseError, match=f"column {8 + LIMIT}: expression nested deeper than {LIMIT}"):
            parse_spec(f"op T = {open_ * (LIMIT + 1)}d^1{close * (LIMIT + 1)}\n")

    def test_delta_counts_toward_nesting(self):
        from mvop.dsl import LIMIT

        deep = "delta(laguerre(alpha=" * (LIMIT + 1) + "1" + "))" * (LIMIT + 1)
        with pytest.raises(ParseError, match=f"nested deeper than {LIMIT}"):
            parse_spec(f"op T = {deep}\n")


class TestChecks:
    def test_search_check_with_options(self):
        doc = parse_spec(
            "check search(laguerre(alpha=1/2), laguerre(alpha=3/2), order=1, dim=1)\n"
        )
        cmd = doc.checks[0]
        assert cmd.kind == "search"
        assert cmd.options == {"order": 1, "dim": 1}
        assert cmd.args[0].value == Laguerre(F(1, 2))

    def test_classify_expect(self):
        doc = parse_spec(
            "check classify(jacobi(alpha=1/2, beta=3/2), jacobi(alpha=3/2, beta=1/2), expect=true)\n"
        )
        assert doc.checks[0].options == {"expect": True}

    def test_inline_weight_refused_for_op_position(self):
        with pytest.raises(ParseError):
            parse_spec("check in_algebra(laguerre(alpha=1/2), laguerre(alpha=1/2))\n")


class TestPrinting:
    def test_scalar_compact_form(self):
        t = DiffOp.scalar([Poly((-1,)), Poly((1,))])
        assert op_scalar_str(t) == "d^1 - 1"

    def test_round_trip_ad_hoc_document(self):
        text = (
            "param alpha = 1/2\n"
            "weight w1 = laguerre(alpha=alpha)\n"
            "weight w2 = laguerre(alpha=alpha+1)\n"
            "weight W = dsum(w1, w2)\n"
            "op T = d^2*[x, 0; 0, x] + d^1*[alpha+1-x, 1; 0, alpha+1-x]\n"
            "check in_algebra(T, W)\n"
        )
        doc = parse_spec(text)
        printed = print_document(doc)
        again = parse_spec(printed)
        assert again == doc
        assert parse_spec(print_document(again)) == again

    def test_round_trip_catalog_documents(self):
        from mvop.catalog import ENTRY_NAMES, entry_document_text

        for name in ENTRY_NAMES:
            doc = parse_spec(entry_document_text(name))
            assert parse_spec(print_document(doc)) == doc

    def test_printed_op_parses_back(self):
        from mvop.catalog import entry

        v = entry("HER3").ops["V"]
        doc = parse_spec(f"op V = {op_str(v)}\n")
        assert doc.ops["V"] == v

    def test_random_ops_round_trip(self):
        from hypothesis import given, settings, strategies as st

        @given(st.data())
        @settings(max_examples=30, deadline=None)
        def inner(data):
            size = data.draw(st.integers(1, 3))
            order = data.draw(st.integers(0, 3))
            coeffs = []
            for _ in range(order + 1):
                rows = [
                    [
                        Poly(data.draw(st.lists(
                            st.fractions(min_value=-3, max_value=3, max_denominator=4),
                            max_size=3,
                        )))
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
                coeffs.append(MatPoly(rows))
            op = DiffOp(size, coeffs)
            doc = parse_spec(f"op T = {op_str(op)}\n")
            assert doc.ops["T"] == op

        inner()


# every token kind of the grammar, names it gives meaning to, and characters
# the lexer refuses
_TOKENS = (
    "param", "weight", "op", "check", "dsum", "hermite", "laguerre", "jacobi", "x", "d",
    "true", "false", "a", "w", "W", "T", "V", "alpha", "beta", "b", "kappa", "in_algebra",
    "symmetric", "darboux", "intertwine", "search", "decompose", "classify", "entry", "JAC2",
    "order", "slack", "horizon", "nmax", "dim", "expect", "delta", "A", "B", "D", "N", "E", "C3", "D1",
    "h", "v", "w1", "0", "1", "2", "3", "7", "64", "65",
    "99999999999", *"=+-*/^()[],;", "\n", "#", "@", ".",
)
_DATA = [f.read_text() for f in (resources.files("mvop") / "data").iterdir() if f.name.endswith(".mvop")]


def _parses_or_refuses(text):
    try:
        doc = parse_spec(text)
    except ParseError:
        return
    assert isinstance(doc, SpecDocument)


class TestFuzz:
    """Any text is a document or a ParseError, never another exception."""

    @given(st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join))
    @settings(max_examples=150, deadline=None)
    def test_token_strings(self, text):
        _parses_or_refuses(text)

    @given(st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join))
    @settings(max_examples=150, deadline=None)
    def test_operator_expressions(self, text):
        # after bound weights and 2x2 operators, so that names resolve
        _parses_or_refuses(_W + _AB + "op T = " + text)

    @given(
        st.sampled_from(_DATA),
        st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(_TOKENS)), min_size=1, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_mutated_data_files(self, text, edits):
        # tokens sit at the odd indices of the split, whitespace between them
        pieces = re.split(r"(\w+|[^\w\s])", text)
        ntok = len(pieces) // 2
        for at, tok in edits:
            pieces[2 * (at % ntok) + 1] = tok
        _parses_or_refuses("".join(pieces))


@dataclass
class _CharTok:
    kind: str
    text: str
    line: int
    col: int

    def __iter__(self):
        return iter((self.kind, self.text, self.line, self.col))


_DIGITS = set(string.digits)
_NAME_START = set(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS


def _lex_by_character(text):
    """Oracle: the character-at-a-time lexer that the compiled expression of
    ``dsl._lex`` replaced, as it was."""
    toks = []
    line, col = 1, 1
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and toks and toks[-1].kind != "NEWLINE":
                toks.append(_CharTok("NEWLINE", "", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            digits = text[i:j].lstrip("0") or "0"
            if len(digits) > dsl._MAX_DIGITS or int(digits) >> dsl.LIMIT * dsl.LIMIT:
                raise ParseError(f"integer literal exceeds {dsl.LIMIT * dsl.LIMIT} bits", line, col)
            toks.append(_CharTok("INT", digits, line, col))
            col += j - i
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            toks.append(_CharTok("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in set("=+-*/^()[],;"):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth = max(0, depth - 1)
            toks.append(_CharTok("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_CharTok("NEWLINE", "", line, col))
    toks.append(_CharTok("EOF", "", line, col))
    return toks


def _lexed(lex, text):
    try:
        return [tuple(t) for t in lex(text)]
    except ParseError as exc:
        return str(exc)


# pieces of documents (non-ASCII characters are valid in a comment), with
# up to two characters inserted anywhere: ASCII, or some non-ASCII ones (a
# digit and a letter of other scripts, a superscript, a no-break space, a
# character outside the BMP) or any other
_LEX_PIECES = st.sampled_from([
    "x", "ab_1", "007", "12", "=", "-", "^", "(", ")", "[", "]", ";", ",",
    "#", "# c", "# \u03bb\u00b2", "\n", "\n", " ", "\t", "\r",
])
_LEX_INSERTS = st.one_of(
    st.characters(max_codepoint=127),
    st.sampled_from(list("\u0663\u00b2\u00e9\u03bb\u00a0\U0001d400")),
    st.characters(),
)


@st.composite
def _lex_texts(draw):
    chars = list("".join(draw(st.lists(_LEX_PIECES, max_size=40))))
    for at, ch in draw(st.lists(st.tuples(st.integers(0, 200), _LEX_INSERTS), max_size=2)):
        chars.insert(at % (len(chars) + 1), ch)
    return "".join(chars)


class TestLexerOracle:
    """The compiled lexer gives the character-at-a-time lexer's tokens, and
    its ParseError text, on every input."""

    @given(_lex_texts())
    @settings(max_examples=400, deadline=None)
    def test_random_text(self, text):
        assert _lexed(dsl._lex, text) == _lexed(_lex_by_character, text)

    @pytest.mark.parametrize(
        "text",
        ["", "#", "a #c", "a #c\nb", "(\n)\n\n", "x\r\n", "0" * 3000 + "7", "1" * 1234, "2" * 1234, "9" * 1240, "a\t٣"],
    )
    def test_edges(self, text):
        assert _lexed(dsl._lex, text) == _lexed(_lex_by_character, text)

    @pytest.mark.parametrize("k", range(len(_DATA)))
    def test_data_files(self, k):
        got = _lexed(dsl._lex, _DATA[k])
        assert not isinstance(got, str) and got == _lexed(_lex_by_character, _DATA[k])
