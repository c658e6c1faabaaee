"""Knowledge compilation: lineage → CNF → exact model counting.

The paper's Table 1 places most ``#Val`` / ``#Comp`` cells in #P-hard
territory, where the only general-purpose exact tool the repo had was
brute-force enumeration of all valuations.  This subsystem gives the hard
cells a scalable exact path, the standard one from the probabilistic-
database and knowledge-compilation literature:

1. **Lineage** (:mod:`repro.compile.lineage`) — compile ``(D, q)`` into a
   monotone DNF over null-assignment indicator variables (or, for
   completions, fact-membership variables);
2. **Encoding** (:mod:`repro.compile.encode`, with variable maps in
   :mod:`repro.compile.variables`) — turn it into a CNF whose (projected)
   models are in bijection with the falsifying valuations resp. the
   completions, using exactly-one domain blocks;
3. **Counting** (:mod:`repro.compile.sharpsat`, guided by the treewidth
   heuristic of :mod:`repro.compile.ordering`) — an exact #SAT engine
   with unit propagation, connected-component decomposition, component
   caching and projected counting.

4. **Trace compilation** (:mod:`repro.compile.ddnnf_trace`,
   :mod:`repro.compile.circuit`) — optionally, the counter's search is
   recorded once as a d-DNNF arithmetic circuit; uniform counts, weighted
   counts, all-pairs marginals and exact samples are then linear passes
   over the circuit instead of fresh searches.

:mod:`repro.compile.backend` packages the pipeline as the
``method='lineage'`` (search per question) and ``method='circuit'``
(compile once, ask many) backends of :mod:`repro.exact.dispatch`; either
way the cost is exponential in the heuristic treewidth of the lineage,
not in the number of nulls, which is what turns the hard cells from
toy-only into a workload.  Its two compiled artifacts,
:class:`ValuationCircuit` (``#Val``) and :class:`CompletionCircuit`
(``#Comp``), share one constructor, one trace compile and one binary
codec (:mod:`repro.compile.serialize`: one checksummed frame holding the
header ints and the circuit program's int list as it stands);
:data:`~repro.compile.backend.ARTIFACTS` maps each problem kind to its
class, :func:`artifact_from_bytes` rehydrates either (checking the
payload against the instance before it builds the circuit), and
:func:`explain` reports what one compile saw and recorded.
"""

from repro.compile.backend import (
    CompletionCircuit,
    LineageReport,
    ValuationCircuit,
    artifact_from_bytes,
    count_completions_lineage,
    count_valuations_lineage,
    explain,
    lineage_supports,
)
from repro.compile.circuit import DDNNF, CircuitSampler
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.encode import (
    CompletionEncoding,
    ValuationEncoding,
    compile_completion_cnf,
    compile_valuation_cnf,
)
from repro.compile.lineage import (
    LineageUnsupportedQuery,
    enumerate_completion_matches,
    enumerate_valuation_matches,
)
from repro.compile.serialize import CircuitFormatError
from repro.compile.sharpsat import ModelCounter, count_models

__all__ = [
    "CircuitFormatError",
    "LineageReport",
    "artifact_from_bytes",
    "ValuationCircuit",
    "CompletionCircuit",
    "count_completions_lineage",
    "count_valuations_lineage",
    "explain",
    "lineage_supports",
    "DDNNF",
    "CircuitSampler",
    "TraceBuilder",
    "CompletionEncoding",
    "ValuationEncoding",
    "compile_completion_cnf",
    "compile_valuation_cnf",
    "LineageUnsupportedQuery",
    "enumerate_completion_matches",
    "enumerate_valuation_matches",
    "ModelCounter",
    "count_models",
]
