#include "src/opt/pipeline/pass_manager.h"

#include <chrono>

#include "src/common/str_format.h"

namespace gopt {

const PassTraceEntry* PlanTrace::Find(const std::string& pass_name) const {
  for (const auto& e : passes) {
    if (e.pass == pass_name) return &e;
  }
  return nullptr;
}

std::string PlanTrace::ToString() const {
  std::string s = StrFormat("planning %.3f ms over %zu passes, %zu rules fired\n",
                            total_ms, passes.size(), fired_rule_count);
  for (const auto& e : passes) {
    if (e.skipped) {
      s += StrFormat("  %-20s      skipped", e.pass.c_str());
    } else {
      s += StrFormat("  %-20s %9.3f ms", e.pass.c_str(), e.ms);
    }
    if (!e.note.empty()) s += "  [" + e.note + "]";
    s += "\n";
  }
  if (!cbo_patterns.empty()) {
    s += StrFormat("  cbo per-pattern (%zu patterns):\n", cbo_patterns.size());
    for (const auto& p : cbo_patterns) {
      s += StrFormat("    pattern#%d (%zuv/%zue) %9.3f ms\n", p.index,
                     p.vertices, p.edges, p.ms);
    }
  }
  return s;
}

PassManager& PassManager::AddPass(PlannerPassPtr pass) {
  passes_.push_back({std::move(pass), nullptr, ""});
  return *this;
}

PassManager& PassManager::AddPassIf(PassCondition condition, PlannerPassPtr pass,
                                    std::string skip_note) {
  passes_.push_back({std::move(pass), std::move(condition),
                     std::move(skip_note)});
  return *this;
}

std::vector<std::string> PassManager::PassNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& r : passes_) names.push_back(r.pass->Name());
  return names;
}

void PassManager::Run(PlanContext& ctx) const {
  using Clock = std::chrono::steady_clock;
  auto pipeline_start = Clock::now();
  for (const auto& r : passes_) {
    PassTraceEntry entry;
    entry.pass = r.pass->Name();
    if (ctx.invalid) {
      entry.skipped = true;
      entry.note = "plan proven unmatchable";
    } else if (r.condition && !r.condition(ctx)) {
      entry.skipped = true;
      entry.note = r.skip_note;
    } else {
      // Between-pass cancellation boundary: a budget that trips mid-plan
      // stops the pipeline before the next pass (CancelledError propagates
      // to the Prepare caller like any pass error).
      ctx.cancel.Check();
      auto t0 = Clock::now();
      r.pass->Run(ctx);
      auto t1 = Clock::now();
      entry.ms =
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
          1e6;
      entry.note = std::move(ctx.pass_note);
      ctx.pass_note.clear();
    }
    ctx.trace.passes.push_back(std::move(entry));
  }
  auto pipeline_end = Clock::now();
  ctx.trace.total_ms = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           pipeline_end - pipeline_start)
                           .count() /
                       1e6;
  ctx.trace.fired_rule_count = ctx.fired_rules.size();
}

}  // namespace gopt
