"""Explore Table 1: classify queries and watch the dichotomy at work.

For a catalogue of sjfBCQs, prints the full dichotomy report and then
*demonstrates* each verdict on a concrete instance: FP cells run the
polynomial algorithm, hard cells go to whatever exact method the planner
picks.

Run:  python examples/dichotomy_explorer.py
"""

from repro.core.classify import Tractability, classify
from repro.core.problems import VAL, VAL_CODD, VAL_UNIFORM
from repro.core.query import Atom, BCQ
from repro.exact import planner
from repro.exact.dispatch import count_valuations
from repro.io.queries import format_query
from repro.workloads.generators import random_incomplete_db

CATALOGUE = [
    BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])]),       # fully pattern-free
    BCQ([Atom("R", ["x", "x"])]),                          # repeat pattern
    BCQ([Atom("R", ["x"]), Atom("S", ["x"])]),             # shared pattern
    BCQ([Atom("R", ["x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])]),  # path
    BCQ([Atom("R", ["x", "y"]), Atom("S", ["x", "y"])]),   # double edge
]

for query in CATALOGUE:
    report = classify(query)
    print("=" * 72)
    print(report.to_table())
    print()

    schema = {atom.relation: atom.arity for atom in query.atoms}
    for variant, uniform, codd in (
        (VAL, False, False),
        (VAL_CODD, False, True),
        (VAL_UNIFORM, True, False),
    ):
        db = random_incomplete_db(
            schema, seed=7, uniform=uniform, codd=codd, domain_size=3
        )
        algorithm = planner.plan("val", db, query, "poly").chosen
        count = count_valuations(db, query)
        verdict = report.entry(variant).tractability
        print(
            "  %-8s -> %-12s algorithm=%-18s #Val=%d"
            % (variant.paper_name, verdict.value, algorithm or "exponential", count)
        )
        # The classifier and the planner must tell the same story.
        if verdict is Tractability.FP:
            assert algorithm is not None, format_query(query)
    print()
