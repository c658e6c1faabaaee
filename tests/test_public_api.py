"""Snapshot of the package's public surface.

``repro.__all__`` and the facade signatures are a compatibility contract:
this test pins both, so any rename, removal, or signature change shows up
as an explicit diff here instead of as a silent break for downstream code.
"""

import inspect

import repro


EXPECTED_ALL = [
    "Atom",
    "BCQ",
    "Const",
    "Negation",
    "UCQ",
    "Var",
    "classify",
    "Database",
    "Fact",
    "IncompleteDatabase",
    "Null",
    "Answer",
    "NoPolynomialAlgorithm",
    "Plan",
    "count_completions",
    "count_valuations",
    "count_valuations_sweep",
    "count_valuations_weighted",
    "solve",
    "__version__",
]


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_solve_signature(self):
        assert str(inspect.signature(repro.solve)) == (
            "(problem: 'str', db: 'IncompleteDatabase', "
            "query: 'BooleanQuery | None' = None, *, method: 'str' = 'auto', "
            "weights: 'Any' = None, budget: 'int | None' = 2000000, "
            "store: 'Any' = None) -> 'Answer'"
        )

    def test_wrapper_signatures(self):
        assert str(inspect.signature(repro.count_valuations)) == (
            "(db: 'IncompleteDatabase', query: 'BooleanQuery', "
            "method: 'str' = 'auto', budget: 'int | None' = 2000000) "
            "-> 'int'"
        )
        assert str(inspect.signature(repro.count_valuations_sweep)) == (
            "(db: 'IncompleteDatabase', query: 'BooleanQuery', "
            "weight_rows, method: 'str' = 'auto', "
            "budget: 'int | None' = 2000000) -> 'list'"
        )

    def test_answer_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.Answer)]
        assert fields == [
            "problem", "count", "method", "plan", "seconds", "stats",
        ]
