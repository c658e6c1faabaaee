"""Tests for the workload/instance generators."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.exact.val_codd import applies_to as codd_applies
from repro.exact.val_nonuniform import applies_to as single_applies
from repro.exact.val_uniform import applies_to as uniform_applies
from repro.exact.comp_uniform import applies_to as comp_applies
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_codd_instance,
    scaling_single_occurrence_instance,
    scaling_uniform_unary_comp_instance,
    scaling_uniform_val_instance,
)


class TestRandomIncompleteDb:
    @given(st.integers(0, 100))
    @settings(max_examples=25)
    def test_respects_flags(self, seed):
        schema = {"R": 2, "S": 1}
        codd = random_incomplete_db(schema, seed, codd=True)
        assert codd.is_codd
        uniform = random_incomplete_db(schema, seed, uniform=True)
        assert uniform.is_uniform
        non_uniform = random_incomplete_db(schema, seed, uniform=False)
        assert not non_uniform.is_uniform

    def test_deterministic(self):
        schema = {"R": 2}
        first = random_incomplete_db(schema, seed=5)
        second = random_incomplete_db(schema, seed=5)
        assert first.facts == second.facts

    def test_non_uniform_instance_ignores_hash_seed(self):
        # The per-null domains are drawn in a fixed order, so one seed is
        # one instance in every process, whatever its string hash seed.
        script = (
            "from repro.workloads.generators import random_incomplete_db\n"
            "db = random_incomplete_db({'R': 2, 'S': 1}, seed=7, num_nulls=4,"
            " uniform=False)\n"
            "print(sorted(map(repr, db.facts)))\n"
            "print(sorted((repr(n), sorted(map(repr, db.domain_of(n))))"
            " for n in db.nulls))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script], env=env, check=True,
                    capture_output=True, text=True,
                ).stdout
            )
        assert outputs[0] == outputs[1]

    def test_schema_respected(self):
        db = random_incomplete_db(
            {"R": 3}, seed=1, facts_per_relation=(2, 2)
        )
        assert all(f.arity == 3 for f in db.facts)
        assert db.relations <= {"R"}


class TestScalingFamilies:
    """Each family must target its theorem's applicability region and grow
    with its size parameter."""

    def test_single_occurrence_family(self):
        db, query = scaling_single_occurrence_instance(5)
        assert single_applies(query)
        assert not db.is_uniform
        bigger, _ = scaling_single_occurrence_instance(10)
        assert len(bigger.nulls) > len(db.nulls)

    def test_codd_family(self):
        db, query = scaling_codd_instance(5)
        assert codd_applies(query)
        assert db.is_codd
        assert not db.is_uniform

    def test_uniform_val_family(self):
        db, query = scaling_uniform_val_instance(5)
        assert uniform_applies(query)
        assert db.is_uniform
        assert not db.is_codd  # shared nulls exercise the naive case

    def test_uniform_comp_family(self):
        db, query = scaling_uniform_unary_comp_instance(6)
        assert comp_applies(query)
        assert db.is_uniform
        assert all(f.arity == 1 for f in db.facts)

    def test_families_are_deterministic(self):
        for factory in (
            scaling_single_occurrence_instance,
            scaling_codd_instance,
            scaling_uniform_val_instance,
            scaling_uniform_unary_comp_instance,
        ):
            first, _ = factory(4)
            second, _ = factory(4)
            assert first.facts == second.facts
