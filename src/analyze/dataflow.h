#pragma once

#include <vector>

#include "analyze/source_model.h"
#include "check/lint.h"

namespace ntr::analyze {

/// Semantic dataflow passes over the scope-aware parse
/// (`check/cpp_parser.h`) of every project file. Three rules, all scoped
/// to `src/` (tools and tests may legitimately discard, iterate, and
/// capture however they like):
///
///   unchecked-status            a call to a project function returning
///                               `Status`/`StatusOr` whose result roots a
///                               discarded statement, or a local of that
///                               type never read after initialization;
///                               `(void)` casts are explicit discards
///   nondeterministic-iteration  a loop over an `unordered_map`/`_set`
///                               whose body writes an outer container,
///                               accumulator, or stream with no ordering
///                               step: no ordered-container target, no
///                               later sort of the output, and no
///                               `ntr-determinism(<why>)` justification
///                               comment on or above the loop line
///   escaping-ref-capture        a lambda with by-ref captures handed to
///                               a deferred-execution sink (submit/post/
///                               async/thread/...), returned, pushed into
///                               a task container, or stored outside the
///                               enclosing scope; the synchronous
///                               `parallel_chunks`/`parallel_for`/
///                               `parallel_argmin`/`ThreadPool::run`
///                               barriers are exempt
///                               (data races there are the concurrency
///                               pass's beat, not lifetime's)
///
/// Like every `ntr_analyze` pass these are documented heuristics on the
/// coarse parse, not a compiler analysis; see docs/static_analysis.md
/// ("Semantic passes") for the model and its known limits.
[[nodiscard]] std::vector<check::LintDiagnostic> check_dataflow(
    const Project& project);

}  // namespace ntr::analyze
