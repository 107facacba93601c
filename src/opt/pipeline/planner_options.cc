#include "src/opt/pipeline/planner_options.h"

#include <charconv>
#include <cstring>

#include "src/common/hash.h"
#include "src/lang/lexer.h"

namespace gopt {

std::string NormalizeQueryText(const std::string& query) {
  // Rebuild the query from the real lexer's token stream, so the cache key
  // follows exactly the rules the frontends tokenize by (whitespace,
  // '//' comments, string escapes) and can never drift from them.
  try {
    return RenderTokenStream(Lexer(query).tokens());
  } catch (const std::exception&) {
    // Untokenizable (e.g. unterminated literal): key on the raw text; the
    // parse pass will report the error.
    return query;
  }
}

namespace {

size_t HashString(const std::string& s) {
  return std::hash<std::string>{}(s);
}

size_t HashDouble(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return static_cast<size_t>(bits);
}

}  // namespace

size_t HashBackendSpec(const BackendSpec& b) {
  size_t h = HashString(b.name);
  h = HashCombine(h, static_cast<size_t>(b.distributed));
  h = HashCombine(h, static_cast<size_t>(b.num_workers));
  h = HashCombine(h, HashDouble(b.comm_factor));
  for (const auto& e : b.expands) h = HashCombine(h, HashString(e->Name()));
  for (const auto& j : b.joins) h = HashCombine(h, HashString(j->Name()));
  return h;
}

uint64_t OptionsFingerprint(const EngineOptions& opts) {
  size_t h = static_cast<size_t>(opts.mode);
  h = HashCombine(h, static_cast<size_t>(opts.enable_rbo));
  h = HashCombine(h, static_cast<size_t>(opts.enable_type_inference));
  h = HashCombine(h, static_cast<size_t>(opts.enable_cbo));
  h = HashCombine(h, static_cast<size_t>(opts.high_order_stats));
  h = HashCombine(h, static_cast<size_t>(opts.enable_agg_pushdown));
  h = HashCombine(h, static_cast<size_t>(opts.greedy_only));
  h = HashCombine(h, static_cast<size_t>(opts.semantics));
  h = HashCombine(h, static_cast<size_t>(opts.glogue_k));
  h = HashCombine(h, HashDouble(opts.glogue_sample_rate));
  h = HashCombine(h, static_cast<size_t>(opts.random_plan_seed + 1));
  h = HashCombine(h, opts.planning_backend
                         ? HashBackendSpec(*opts.planning_backend)
                         : static_cast<size_t>(0));
  for (const auto& r : opts.rbo_rule_filter) {
    h = HashCombine(h, HashString(r));
  }
  h = HashCombine(h, opts.rbo_rule_filter.size());
  // The sharded-store knobs shape plans: the CBO's communication term is
  // scaled by the partitioning's measured edge-cut (see CommProfile).
  h = HashCombine(h, static_cast<size_t>(opts.partitions));
  h = HashCombine(h, static_cast<size_t>(opts.partition_policy));
  h = HashCombine(h, static_cast<size_t>(opts.partition_refine_sweeps));
  h = HashCombine(h, HashDouble(opts.partition_balance_cap));
  // Factorization decisions are frozen into the cached pipeline plan.
  h = HashCombine(h, static_cast<size_t>(opts.factorization));
  return static_cast<uint64_t>(h);
}

std::string PlanCacheKeyFromCanonical(const std::string& canonical_text,
                                      Language lang,
                                      const EngineOptions& opts,
                                      const PlanCacheScope& scope) {
  std::string key = canonical_text;
  key.push_back('\x1f');
  key.push_back(lang == Language::kCypher ? 'c' : 'g');
  key.push_back('\x1f');
  key += std::to_string(OptionsFingerprint(opts));
  key.push_back('\x1f');
  key += std::to_string(scope.backend);
  key.push_back('\x1f');
  key += std::to_string(scope.graph);
  key.push_back('\x1f');
  key += std::to_string(scope.glogue_epoch);
  return key;
}

std::string PlanCacheKey(const std::string& query, Language lang,
                         const EngineOptions& opts,
                         const PlanCacheScope& scope) {
  return PlanCacheKeyFromCanonical(NormalizeQueryText(query), lang, opts,
                                   scope);
}

std::optional<uint64_t> PlanCacheKeyGraph(const std::string& key) {
  // Keys end "\x1f<graph>\x1f<glogue epoch>".
  const size_t epoch_sep = key.rfind('\x1f');
  if (epoch_sep == std::string::npos || epoch_sep == 0) return std::nullopt;
  const size_t graph_sep = key.rfind('\x1f', epoch_sep - 1);
  if (graph_sep == std::string::npos) return std::nullopt;
  const char* first = key.data() + graph_sep + 1;
  const char* last = key.data() + epoch_sep;
  uint64_t graph = 0;
  auto [end, ec] = std::from_chars(first, last, graph);
  if (ec != std::errc() || end != last) return std::nullopt;
  return graph;
}

}  // namespace gopt
