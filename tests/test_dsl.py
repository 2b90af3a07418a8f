"""DSL parsing, printing, and round-trips."""

import re
import time
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from mvop.exactalg import MatRF, Poly, RatFunc, X
from mvop.diffop import DiffOp, MatPoly
from mvop.weights import Jacobi, Laguerre, Weight
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
        assert t.coeff(1).entry(0, 0) == RatFunc(F(2, 3) * X)
        assert t.coeff(0).entry(0, 0) == RatFunc(Poly((F(4, 9),)))

    def test_param_override(self):
        doc = parse_spec("param c = 1\nop T = d^0*(c)\n", {"c": F(5)})
        assert doc.ops["T"].coeff(0).entry(0, 0) == RatFunc(Poly((5,)))

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
        assert w.M.entry(1, 1) == RatFunc(Poly((1, 1)))

    def test_constant_division(self):
        doc = parse_spec("param a = 2\nop T = d^0*(x/a + 1/a)\n")
        assert doc.ops["T"].coeff(0).entry(0, 0) == RatFunc(Poly((F(1, 2), F(1, 2))))

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
        ],
        ids=["d-order", "x-exponent", "const-exponent", "in-algebra-nmax", "intertwine-nmax",
             "search-order", "search-horizon"],
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

    def test_negative_nmax_refused(self):
        with pytest.raises(ParseError, match="nmax -1"):
            parse_spec("weight w = laguerre(alpha=1/2)\nop T = d^1\ncheck in_algebra(T, w, nmax=-1)\n")

    def test_search_requires_order(self):
        with pytest.raises(ParseError):
            parse_spec(
                "check search(laguerre(alpha=1/2), laguerre(alpha=3/2))\n"
            )


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
                coeffs.append(MatPoly(rows).to_matrf())
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
    "order", "slack", "horizon", "nmax", "dim", "expect", "0", "1", "2", "3", "7", "64", "65",
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
