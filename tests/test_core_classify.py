"""Tests that the classifier reproduces Table 1 cell by cell."""

import pytest
from hypothesis import given, settings

from repro.core.classify import (
    Approximability,
    Tractability,
    classify,
    outside_table1,
    tractable,
)
from repro.core.patterns import (
    PATTERN_BINARY,
    PATTERN_DOUBLE_EDGE,
    PATTERN_PATH,
    PATTERN_REPEAT,
    PATTERN_SHARED,
    PATTERN_UNARY,
)
from repro.core.problems import (
    COMP,
    COMP_CODD,
    COMP_UNIFORM,
    COMP_UNIFORM_CODD,
    VAL,
    VAL_CODD,
    VAL_UNIFORM,
    VAL_UNIFORM_CODD,
    ALL_VARIANTS,
    Mode,
    ProblemVariant,
)
from repro.core.query import Atom, BCQ, Const, UCQ

from tests.conftest import random_sjf_queries


def q(*atoms):
    return BCQ(list(atoms))


FP = Tractability.FP
HARD = Tractability.SHARP_P_HARD
COMPLETE = Tractability.SHARP_P_COMPLETE
OPEN = Tractability.OPEN


class TestTable1Valuations:
    """Columns 1-2 of Table 1."""

    def test_repeat_pattern_row(self):
        report = classify(PATTERN_REPEAT)
        assert report.entry(VAL).tractability == COMPLETE  # Prop. 3.4
        assert report.entry(VAL_UNIFORM).tractability == COMPLETE
        assert report.entry(VAL_CODD).tractability == FP  # Thm. 3.7
        assert report.entry(VAL_UNIFORM_CODD).tractability == FP

    def test_shared_pattern_row(self):
        report = classify(PATTERN_SHARED)
        assert report.entry(VAL).tractability == COMPLETE  # Prop. 3.5
        assert report.entry(VAL_CODD).tractability == COMPLETE
        # uniform: R(x)∧S(x) avoids all three Theorem 3.9 patterns
        assert report.entry(VAL_UNIFORM).tractability == FP
        assert report.entry(VAL_UNIFORM_CODD).tractability == FP

    def test_path_pattern_row(self):
        report = classify(PATTERN_PATH)
        for variant in (VAL, VAL_CODD, VAL_UNIFORM, VAL_UNIFORM_CODD):
            assert report.entry(variant).tractability == COMPLETE

    def test_double_edge_row(self):
        report = classify(PATTERN_DOUBLE_EDGE)
        assert report.entry(VAL_UNIFORM).tractability == COMPLETE  # Prop. 3.8
        assert report.entry(VAL).tractability == COMPLETE  # via R(x)∧S(x)
        assert report.entry(VAL_CODD).tractability == COMPLETE
        # The open cell: R(x,y)∧S(x,y) has no path pattern, but has the
        # double-edge pattern, so uniform Codd is OPEN.
        assert report.entry(VAL_UNIFORM_CODD).tractability == OPEN

    def test_single_binary_atom_is_easy_for_valuations(self):
        report = classify(PATTERN_BINARY)
        for variant in (VAL, VAL_CODD, VAL_UNIFORM, VAL_UNIFORM_CODD):
            assert report.entry(variant).tractability == FP

    def test_repeat_on_codd_uniform_open_cell(self):
        """R(x,x): no path pattern => #ValuCd is FP?  No — R(x,x) is one of
        the three naive-uniform patterns but Theorem 3.7 already gives FP on
        Codd tables (non-uniform, hence uniform too)."""
        report = classify(PATTERN_REPEAT)
        assert report.entry(VAL_UNIFORM_CODD).tractability == FP

    def test_valuations_always_admit_fpras(self):
        for query in (PATTERN_REPEAT, PATTERN_PATH, PATTERN_DOUBLE_EDGE):
            report = classify(query)
            for variant in ALL_VARIANTS:
                if variant.mode is not Mode.VALUATIONS:
                    continue
                assert report.entry(variant).approximability in (
                    Approximability.FPRAS,
                    Approximability.EXACT_FP,
                )


class TestTable1Completions:
    """Columns 3-4 of Table 1."""

    def test_unary_query_row(self):
        report = classify(PATTERN_UNARY)
        assert report.entry(COMP).tractability == HARD  # Thm. 4.3
        assert report.entry(COMP_CODD).tractability == COMPLETE  # Thm. 4.4
        assert report.entry(COMP_UNIFORM).tractability == FP  # Thm. 4.6
        assert report.entry(COMP_UNIFORM_CODD).tractability == FP

    def test_binary_patterns_hard_everywhere(self):
        for query in (PATTERN_REPEAT, PATTERN_BINARY):
            report = classify(query)
            assert report.entry(COMP).tractability == HARD
            assert report.entry(COMP_CODD).tractability == COMPLETE
            assert report.entry(COMP_UNIFORM).tractability == HARD
            assert report.entry(COMP_UNIFORM_CODD).tractability == COMPLETE

    def test_unary_multi_atom_uniform_fp(self):
        report = classify(q(Atom("R", ["x"]), Atom("S", ["x"])))
        assert report.entry(COMP_UNIFORM).tractability == FP
        assert report.entry(COMP_UNIFORM_CODD).tractability == FP
        assert report.entry(COMP).tractability == HARD

    def test_no_fpras_for_nonuniform_completions(self):
        """Theorem 5.5 applies to every sjfBCQ."""
        for query in (PATTERN_UNARY, PATTERN_REPEAT, PATTERN_PATH):
            report = classify(query)
            assert (
                report.entry(COMP).approximability
                == Approximability.NO_FPRAS_UNLESS_NP_EQ_RP
            )
            assert (
                report.entry(COMP_CODD).approximability
                == Approximability.NO_FPRAS_UNLESS_NP_EQ_RP
            )

    def test_uniform_codd_approximation_open(self):
        """The Section 5.2 open question."""
        report = classify(PATTERN_BINARY)
        assert (
            report.entry(COMP_UNIFORM_CODD).approximability
            == Approximability.OPEN
        )

    def test_membership_annotations(self):
        report = classify(PATTERN_REPEAT)
        assert "#P" in report.entry(COMP_CODD).membership
        assert "SpanP" in report.entry(COMP).membership


class TestReportRendering:
    def test_to_table_contains_all_variants(self):
        text = classify(PATTERN_PATH).to_table()
        for variant in ALL_VARIANTS:
            assert variant.paper_name in text

    def test_rejects_self_joins(self):
        with pytest.raises(ValueError):
            classify(BCQ([Atom("R", ["x"]), Atom("R", ["y"])]))


class TestTractable:
    """``tractable`` reads the rows ``classify`` reads, one row at a time."""

    @given(random_sjf_queries())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_classify_on_every_variant(self, query):
        report = classify(query)
        for variant in ALL_VARIANTS:
            entry = report.entry(variant)
            ok, reason = tractable(query, variant)
            assert ok == (entry.tractability is FP)
            if entry.witnesses:
                # The refusal names the first witness and the deciding result.
                assert entry.witnesses[0] in reason
                assert entry.citations[0] in reason
            elif entry.tractability is OPEN:
                assert "open cell" in reason

    def test_reasons_in_plain_words(self):
        ok, reason = tractable(PATTERN_SHARED, VAL)
        assert not ok
        assert reason == (
            "two atoms share a variable "
            "(R(x)∧S(x) is a pattern: #P-hard by Theorem 3.6)"
        )
        assert tractable(PATTERN_SHARED, VAL_UNIFORM) == (
            True,
            "none of R(x,x), R(x)∧S(x,y)∧T(y), R(x,y)∧S(x,y) is a pattern: "
            "FP by Theorem 3.9",
        )
        assert tractable(PATTERN_REPEAT, VAL_UNIFORM_CODD)[1].endswith(
            "FP by Theorem 3.7"
        )

    @pytest.mark.parametrize(
        "query, reason",
        [
            (BCQ([Atom("R", ["x"]), Atom("R", ["y"])]), "self-joins"),
            (BCQ([Atom("R", ["x", Const("a")])]), "constants"),
            (UCQ([PATTERN_UNARY, PATTERN_SHARED]), "not a BCQ"),
            (None, "not a BCQ"),
        ],
    )
    def test_refuses_queries_outside_table1(self, query, reason):
        assert reason in outside_table1(query)
        for variant in ALL_VARIANTS:
            assert tractable(query, variant) == (False, outside_table1(query))


class TestProblemVariantParsing:
    def test_paper_names(self):
        assert ProblemVariant.parse("#ValuCd") == VAL_UNIFORM_CODD
        assert ProblemVariant.parse("#Comp") == COMP
        assert str(COMP_UNIFORM) == "#Compu"

    def test_slash_form(self):
        assert ProblemVariant.parse("val/uniform/codd") == VAL_UNIFORM_CODD
        assert ProblemVariant.parse("comp") == COMP
        assert ProblemVariant.parse("comp/codd") == COMP_CODD

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ProblemVariant.parse("#Nope")
        with pytest.raises(ValueError):
            ProblemVariant.parse("val/sideways")
        with pytest.raises(ValueError):
            ProblemVariant.parse("")

    def test_eight_variants(self):
        assert len(ALL_VARIANTS) == 8
        assert len({v.paper_name for v in ALL_VARIANTS}) == 8
