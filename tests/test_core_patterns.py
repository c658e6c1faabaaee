"""Tests for the pattern preorder (Definition 3.1) and its detectors."""

from hypothesis import given, settings

from repro.core.patterns import (
    PATTERN_BINARY,
    PATTERN_DOUBLE_EDGE,
    PATTERN_PATH,
    PATTERN_REPEAT,
    PATTERN_SHARED,
    PATTERN_UNARY,
    find_pattern_embedding,
    find_table1_patterns,
    has_atom_with_two_variables,
    has_double_edge_pattern,
    has_path_pattern,
    has_repeated_variable_atom,
    has_shared_variable,
    is_pattern_of,
)
from repro.core.query import Atom, BCQ

from tests.conftest import random_sjf_queries


def q(*atoms):
    return BCQ(list(atoms))


class TestExample32:
    def test_paper_example(self):
        """Example 3.2: R'(u,u,y) ∧ S'(z) is a pattern of
        R(u,x,u) ∧ S'(y,y) ∧ T(x,s,z,s)."""
        query = q(
            Atom("R", ["u", "x", "u"]),
            Atom("Sp", ["y", "y"]),
            Atom("T", ["x", "s", "z", "s"]),
        )
        pattern = q(Atom("Rp", ["u", "u", "y"]), Atom("Sq", ["z"]))
        assert is_pattern_of(pattern, query)


class TestPreorderBasics:
    def test_reflexive(self):
        for query in (PATTERN_REPEAT, PATTERN_PATH, PATTERN_DOUBLE_EDGE):
            assert is_pattern_of(query, query)

    def test_unary_is_pattern_of_everything(self):
        for query in (
            PATTERN_REPEAT,
            PATTERN_BINARY,
            PATTERN_PATH,
            PATTERN_DOUBLE_EDGE,
            q(Atom("A", ["x", "y", "z"])),
        ):
            assert is_pattern_of(PATTERN_UNARY, query)

    def test_occurrence_deletion_not_duplication(self):
        # R(x,x) is not a pattern of R(x,y): occurrences cannot be merged.
        assert not is_pattern_of(PATTERN_REPEAT, PATTERN_BINARY)
        # R(x,y) is not a pattern of R(x,x): renaming renames *all*
        # occurrences, so the two positions cannot take different names.
        assert not is_pattern_of(PATTERN_BINARY, PATTERN_REPEAT)

    def test_atom_deletion(self):
        assert is_pattern_of(PATTERN_SHARED, PATTERN_PATH)
        assert is_pattern_of(
            PATTERN_SHARED, q(Atom("A", ["x", "u"]), Atom("B", ["x"]))
        )

    def test_atom_count_bounds(self):
        assert not is_pattern_of(PATTERN_SHARED, PATTERN_REPEAT)
        assert not is_pattern_of(PATTERN_PATH, PATTERN_DOUBLE_EDGE)

    def test_variable_injectivity(self):
        # R(x) ∧ S(y) is a pattern of R(u) ∧ S(v), but R(x) ∧ S(x) is not:
        # distinct pattern variables need distinct (shared) originals.
        two_free = q(Atom("R", ["x"]), Atom("S", ["y"]))
        assert is_pattern_of(two_free, q(Atom("R", ["u"]), Atom("S", ["v"])))
        assert not is_pattern_of(
            PATTERN_SHARED, q(Atom("R", ["u"]), Atom("S", ["v"]))
        )

    def test_reordering(self):
        assert is_pattern_of(
            q(Atom("P", ["x", "y"]), Atom("Q", ["y"])),
            q(Atom("A", ["u", "v"]), Atom("B", ["u"])),
        )

    def test_transitivity_on_table1(self):
        # chains through the canonical patterns
        assert is_pattern_of(PATTERN_UNARY, PATTERN_SHARED)
        assert is_pattern_of(PATTERN_SHARED, PATTERN_PATH)
        assert is_pattern_of(PATTERN_UNARY, PATTERN_PATH)


class TestDetectorsAgainstGeneralProcedure:
    """The closed-form detectors must agree with the Definition-3.1 search
    — two independent implementations of each Table-1 membership test."""

    @given(random_sjf_queries())
    @settings(max_examples=120, deadline=None)
    def test_all_detectors(self, query):
        assert has_repeated_variable_atom(query) == is_pattern_of(
            PATTERN_REPEAT, query
        )
        assert has_atom_with_two_variables(query) == is_pattern_of(
            PATTERN_BINARY, query
        )
        assert has_shared_variable(query) == is_pattern_of(
            PATTERN_SHARED, query
        )
        assert has_path_pattern(query) == is_pattern_of(PATTERN_PATH, query)
        assert has_double_edge_pattern(query) == is_pattern_of(
            PATTERN_DOUBLE_EDGE, query
        )

    @given(random_sjf_queries())
    @settings(max_examples=60, deadline=None)
    def test_find_table1_patterns_consistency(self, query):
        """All six Table-1 names, each decided by the general search."""
        patterns = {
            "R(x)": PATTERN_UNARY,
            "R(x,x)": PATTERN_REPEAT,
            "R(x,y)": PATTERN_BINARY,
            "R(x)∧S(x)": PATTERN_SHARED,
            "R(x)∧S(x,y)∧T(y)": PATTERN_PATH,
            "R(x,y)∧S(x,y)": PATTERN_DOUBLE_EDGE,
        }
        assert find_table1_patterns(query) == {
            name: is_pattern_of(pattern, query)
            for name, pattern in patterns.items()
        }


class TestEmbeddings:
    def test_embedding_structure(self):
        query = q(Atom("R", ["u", "x", "u"]), Atom("S", ["y"]))
        pattern = q(Atom("P", ["a", "a"]))
        embedding = find_pattern_embedding(pattern, query)
        assert embedding is not None
        assert embedding.atom_map == (0,)
        target = embedding.variable_map[pattern.atoms[0].variables()[0]]
        assert target.name == "u"
        # both pattern positions land on the two 'u' positions of R
        assert sorted(embedding.position_maps[0].values()) == [0, 2]

    def test_no_embedding_when_not_pattern(self):
        assert find_pattern_embedding(PATTERN_REPEAT, PATTERN_BINARY) is None

    @given(random_sjf_queries(), random_sjf_queries())
    @settings(max_examples=80, deadline=None)
    def test_embedding_iff_pattern(self, pattern, query):
        assert (find_pattern_embedding(pattern, query) is not None) == (
            is_pattern_of(pattern, query)
        )

    @given(random_sjf_queries(), random_sjf_queries())
    @settings(max_examples=60, deadline=None)
    def test_embedding_is_valid(self, pattern, query):
        embedding = find_pattern_embedding(pattern, query)
        if embedding is None:
            return
        # atom map injective, position maps injective & consistent
        assert len(set(embedding.atom_map)) == len(embedding.atom_map)
        assert len(set(embedding.variable_map.values())) == len(
            embedding.variable_map
        )
        for k, pattern_atom in enumerate(pattern.atoms):
            query_atom = query.atoms[embedding.atom_map[k]]
            mapping = embedding.position_maps[k]
            assert len(set(mapping.values())) == len(mapping)
            assert set(mapping) == set(range(pattern_atom.arity))
            for src, dst in mapping.items():
                source_var = pattern_atom.terms[src]
                assert (
                    query_atom.terms[dst]
                    == embedding.variable_map[source_var]
                )
