#pragma once

// The benchmark's op streams: the fixed list of distinct queries each
// workload loops over, generated from the workload seed alone (plus the
// benchmark's fixed LDBC graph, whose value domains the parameters are
// drawn from). The engine only ever sees the resulting query texts.

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/property_graph.h"
#include "src/opt/pipeline/planner_options.h"

namespace perfbench {

struct Op {
  std::string tmpl;  ///< template id, e.g. "IC3" or "QC4a/gremlin"
  std::string text;  ///< the query text with every parameter substituted
  gopt::Language lang = gopt::Language::kCypher;
};

/// The workloads, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// The distinct ops of `workload` for `seed`, in the (seeded) order a run
/// loops over them. Same seed, same bytes; throws on an unknown workload.
std::vector<Op> MakeOps(const std::string& workload,
                        const gopt::PropertyGraph& g, uint64_t seed);

}  // namespace perfbench
