#pragma once

#include <string>
#include <vector>

#include "analyze/callgraph.h"
#include "analyze/source_model.h"
#include "check/lint.h"

namespace ntr::analyze {

/// The interprocedural reachability passes that certify the engine for a
/// concurrent daemon (`ntr_serve`): see docs/static_analysis.md
/// ("Interprocedural passes").
///
///  - global-mutable-state: mutable namespace-scope globals and
///    function-local `static`s reachable from the engine entry points
///    (`entries`; default flow::run_timing_flow + the route::*ldrg*
///    family) -- the state that breaks re-entrancy.
///  - alloc-in-hot-path: `new`, make_unique/make_shared, unreserved
///    vector growth, and string construction transitively reachable from
///    functions annotated NTR_HOT (src/core/annotations.h).
///  - blocking-in-lane: stream/file I/O, mutex acquisition, and sleeps
///    reachable from parallel_chunks/parallel_for lane bodies and
///    parallel_argmin score lambdas.
///
/// Findings are src/-only. Each rule honors the standard
/// `ntr-lint-allow` suppressions plus a justification-comment escape
/// hatch in the established grammar -- `ntr-<rule>(<why>)` on the
/// offending line or the line directly above.
[[nodiscard]] std::vector<check::LintDiagnostic> check_reentrancy(
    const Project& project, const CallGraph& graph,
    const std::vector<std::string>& entries);

}  // namespace ntr::analyze
