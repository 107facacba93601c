// gopt end-to-end benchmark driver. One process runs one workload:
//
//   ic_serve    LDBC IC1-IC12 through ServingEngine (2 workers, block
//               admission) from 4 closed-loop clients on one submitting
//               thread; Neo4j-like backend, default options, warm plan
//               cache. Loads the fixed per-query path: parameterize,
//               plan-cache hit, queue handoff, the sequential row runtime.
//   bi_dist     LDBC BI1-BI14, BI16-BI18, one closed-loop client calling
//               Prepare -> Execute on the GraphScope-like backend over a
//               2-partition hash store, warm plan cache. Loads the
//               distributed runtime, its exchanges and the intersect
//               kernels.
//   adhoc_plan  One cold Prepare per op (the plan cache is cleared outside
//               the timed region) over the IC/BI/QR/QT/QC Cypher templates
//               and the QR/QC Gremlin translations. Loads the optimizer:
//               parse, RBO, type inference, the GLogue-driven CBO, and the
//               plan cache's insert path.
//
// The untraced run prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics instead and writes the spans as Chrome trace JSON.
// Every op's result is checked against a reference computed untimed by
// the unrewritten planner (kNoOpt) on the sequential runtime.
// See perfbench/README.md.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/ops.h"
#include "perfbench/trace.h"
#include "src/engine/engine.h"
#include "src/lang/parameterize.h"
#include "src/ldbc/ldbc.h"
#include "src/meta/glogue.h"
#include "src/serve/serving.h"

namespace perfbench {
namespace {

using gopt::ExecOutcome;
using gopt::ExecStatus;
using gopt::GOptEngine;
using gopt::Prepared;
using gopt::ResultTable;

constexpr double kScaleFactor = 1.0;
constexpr uint64_t kGraphSeed = 42;
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 4;
constexpr int kBiPartitions = 2;
constexpr int kReferenceThreads = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
// Samples per distinct op in the post-run probe pass (plan-cache hit and
// parameterize timings), so the probe's p50 rests on at least ~300 calls.
constexpr size_t kProbeSamples = 300;
// Ops between two moves of the ad-hoc client thread (see CpuRotation).
constexpr size_t kRotateOps = 1000;

// Templates whose optimized plans are known to return wrong rows at this
// commit. Their mismatches still count against ok_frac (the defect stays
// visible in the metric), but they do not flip `correct`, which flags any
// NEW wrong result. Remove an entry once the defect is fixed.
const std::map<std::string, std::string>& KnownDefects() {
  static const std::map<std::string, std::string> kDefects = {
      {"IC5",
       "the default planner's rewrite of the HAS_MEMBER.joinDate filter "
       "returns 0 rows; kNoOpt and enable_rbo=false return the right rows"},
  };
  return kDefects;
}

// The metric names each mode prints; BENCHMARK.json lists the same names
// (perfbench/test_perfbench.py keeps the two in step).
const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> kNames = {
      "setup_s", "latency_p50_ms", "latency_p99_ms", "qps",
      "tmpl_geomean_ms", "peak_rss_mb", "ok_frac"};
  return kNames;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> kNames = {
      "ldbc.generate_s",       "meta.glogue_build_s",
      "store.build_s",         "engine.warmup_s",
      "lang.parameterize_us",  "opt.parse_ms",
      "plan_cache.hit_ratio",  "engine.prepare_hit_us",
      "opt.rbo_ms",            "opt.field_trim_ms",
      "opt.type_inference_ms", "opt.physical_ms",
      "opt.cbo_ms_p50",        "opt.cbo_ms_p99",
      "opt.prepare_unaccounted_ms", "opt.cbo_patterns_per_op",
      "opt.rules_fired_per_op", "exec.execute_ms_p50",
      "exec.execute_ms_p99",   "exec.rows_produced_per_op",
      "exec.vec_dispatch_frac", "exec.comm_rows_per_op",
      "exec.exchanges_per_op", "store.edge_cut_frac",
      "serve.queue_ms_p50",    "serve.queue_ms_p99",
      "serve.overhead_ms",     "serve.rejected",
      "proc.cpu_ms_per_op",    "proc.ctx_switches_per_op",
      "engine.unaccounted_ms", "trace.latency_p50_ms"};
  return kNames;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear interpolation between closest ranks; 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool dump_ops = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: gopt_perfbench --workload "
               "ic_serve|bi_dist|adhoc_plan [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] "
               "[--commit SHA] [--dump-ops]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--dump-ops") {
      a.dump_ops = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------- set-up

double PassSum(const gopt::PlanTrace& t) {
  double sum = 0;
  for (const auto& e : t.passes) sum += e.ms;
  return sum;
}

// Pass timings and counts over a workload's cold plannings.
struct PlanStats {
  std::map<std::string, std::vector<double>> pass_ms;  // passes that ran
  std::vector<double> unaccounted_ms;  // Prepare wall minus its passes
  double patterns = 0;
  double rules = 0;
  size_t count = 0;

  void Add(double wall_ms, const gopt::PlanTrace& t) {
    for (const auto& e : t.passes) {
      if (!e.skipped) pass_ms[e.pass].push_back(e.ms);
    }
    unaccounted_ms.push_back(wall_ms - PassSum(t));
    patterns += static_cast<double>(t.cbo_patterns.size());
    rules += static_cast<double>(t.fired_rule_count);
    ++count;
  }
};

// Everything a workload's timed phase needs, built by SetUp. Member order
// is destruction order in reverse: the serving layer goes first, then the
// engine, then the graph it reads.
struct Setup {
  gopt::LdbcGraph ldbc;
  std::shared_ptr<const gopt::Glogue> glogue;
  std::unique_ptr<GOptEngine> engine;
  std::unique_ptr<gopt::ServingEngine> serve;
  std::vector<Op> ops;

  double generate_s = 0;
  double glogue_s = 0;
  double store_s = 0;  // engine construction; builds the sharded store
  double warmup_s = 0;
  double total_s = 0;
  PlanStats plans;  // the warm-up's cold plannings
};

std::unique_ptr<Setup> SetUp(const Args& args, Tracer* tr) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  s->ldbc = gopt::GenerateLdbc(kScaleFactor, kGraphSeed);
  const auto t1 = Clock::now();
  s->glogue = std::make_shared<const gopt::Glogue>(
      gopt::Glogue::Build(*s->ldbc.graph));
  const auto t2 = Clock::now();
  s->ops = MakeOps(args.workload, *s->ldbc.graph, args.seed);

  const auto t3 = Clock::now();
  if (args.workload == "bi_dist") {
    gopt::EngineOptions opts;
    opts.partitions = kBiPartitions;
    s->engine = std::make_unique<GOptEngine>(
        s->ldbc.graph.get(), gopt::BackendSpec::GraphScopeLike(kBiPartitions),
        opts);
  } else {
    s->engine = std::make_unique<GOptEngine>(s->ldbc.graph.get(),
                                             gopt::BackendSpec::Neo4jLike());
  }
  s->engine->SetGlogue(s->glogue);
  const auto t4 = Clock::now();

  // Warm-up: plan every distinct op once (the cold plannings the opt.*
  // metrics of the cached workloads come from), then run it once.
  if (args.workload == "ic_serve") {
    gopt::ServingOptions sopts;
    sopts.worker_threads = kServeWorkers;
    sopts.admission = gopt::AdmissionPolicy::kBlock;
    s->serve = std::make_unique<gopt::ServingEngine>(s->engine.get(), sopts);
  }
  std::vector<std::future<ExecOutcome>> pending;
  for (const Op& op : s->ops) {
    const auto p0 = Clock::now();
    const Prepared prep = s->engine->Prepare(op.text, op.lang);
    if (!prep.from_cache && prep.trace) {
      s->plans.Add(Ms(p0, Clock::now()), *prep.trace);
    }
    if (args.workload == "ic_serve") {
      pending.push_back(s->serve->RunAsync(op.text, {}, op.lang));
    } else if (args.workload == "bi_dist") {
      s->engine->Execute(prep);
    }
  }
  for (auto& f : pending) f.get();
  if (args.workload == "adhoc_plan") s->engine->ClearPlanCache();
  const auto t5 = Clock::now();

  s->generate_s = Ms(t0, t1) / 1000;
  s->glogue_s = Ms(t1, t2) / 1000;
  s->store_s = Ms(t3, t4) / 1000;
  s->warmup_s = Ms(t4, t5) / 1000;
  s->total_s = Ms(t0, t5) / 1000;
  tr->Add("ldbc.generate", t0, t1, 0, 0);
  tr->Add("meta.glogue_build", t1, t2, 0, 0);
  tr->Add("store.build", t3, t4, 0, 0);
  tr->Add("engine.warmup", t4, t5, 0, 0);
  return s;
}

// ------------------------------------------------------------ references

using TablePtr = std::shared_ptr<const ResultTable>;

// Everything the correctness check needs, computed untimed after the timed
// phase (and after peak_rss_mb is read) on a graph of its own (same
// generator seed, so the same values): the reference rows of every
// distinct op, from the unrewritten planner on the sequential runtime with
// the plan cache off, and for ad-hoc ops the verdict and executor stats of
// one run of each op's optimized plan.
struct Reference {
  std::vector<std::string> texts;
  std::vector<TablePtr> rows;
  std::vector<bool> plan_ok;
  std::deque<gopt::ExecStats> plan_stats;
  std::vector<double> plan_exec_ms;
  double seconds = 0;
};

std::unique_ptr<Reference> BuildReference(const Args& args) {
  const auto start = Clock::now();
  auto r = std::make_unique<Reference>();
  const auto ldbc = gopt::GenerateLdbc(kScaleFactor, kGraphSeed);
  const auto glogue = std::make_shared<const gopt::Glogue>(
      gopt::Glogue::Build(*ldbc.graph));
  const std::vector<Op> ops = MakeOps(args.workload, *ldbc.graph, args.seed);
  gopt::EngineOptions opts;
  opts.mode = gopt::PlannerMode::kNoOpt;
  opts.enable_plan_cache = false;
  GOptEngine ref(ldbc.graph.get(), gopt::BackendSpec::Neo4jLike(), opts);
  ref.SetGlogue(glogue);
  for (const Op& op : ops) r->texts.push_back(op.text);
  // Nothing is measured any more, so it may use every core: the
  // unrewritten plans are slow.
  r->rows.resize(ops.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  std::mutex err_mu;
  std::exception_ptr err;  // guarded by err_mu
  for (int t = 0; t < kReferenceThreads; ++t) {
    pool.emplace_back([&] {
      try {
        for (size_t i = next++; i < ops.size(); i = next++) {
          r->rows[i] =
              ref.Execute(ref.Prepare(ops[i].text, ops[i].lang)).table_ptr;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        err = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  if (err) std::rethrow_exception(err);
  if (args.workload == "adhoc_plan") {
    GOptEngine eng(ldbc.graph.get(), gopt::BackendSpec::Neo4jLike());
    eng.SetGlogue(glogue);
    for (size_t i = 0; i < ops.size(); ++i) {
      const ExecOutcome out = eng.Execute(eng.Prepare(ops[i].text, ops[i].lang));
      r->plan_ok.push_back(out.status == ExecStatus::kOk &&
                           out.table().SameRows(*r->rows[i]));
      r->plan_stats.push_back(out.stats);
      r->plan_exec_ms.push_back(out.ms);
    }
  }
  r->seconds = Ms(start, Clock::now()) / 1000;
  return r;
}

// Peak resident memory is reported for one set-up plus the timed phase:
// the earlier set-ups are not part of the workload. Linux resets the peak
// mark on writing "5" to clear_refs.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// VmHWM (the peak mark) in MB, or the process-lifetime ru_maxrss where
// /proc is unavailable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atol(line + 6);
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------- measurements

// Every op's client-side latency and template over the whole timed phase,
// from which the end-to-end timings are taken. Capacity for the longest
// plausible run is reserved up front: the kernel maps the pages only as
// they are written, so the log adds its 8 bytes per op to peak_rss_mb and
// never a reallocation's copy.
class LatencyLog {
 public:
  LatencyLog(const std::vector<Op>& ops, double seconds) {
    std::map<std::string, uint32_t> ids;
    for (const Op& op : ops) {
      tmpl_of_.push_back(
          ids.emplace(op.tmpl, static_cast<uint32_t>(ids.size())).first->second);
    }
    n_tmpl_ = ids.size();
    log_.reserve(static_cast<size_t>(seconds * 50000) + 1000);
  }

  void Add(size_t op_index, double latency_ms) {
    log_.push_back({static_cast<float>(latency_ms), tmpl_of_[op_index]});
  }

  double Quantile(double q) const {
    std::vector<double> all;
    all.reserve(log_.size());
    for (const Entry& e : log_) all.push_back(e.ms);
    return perfbench::Quantile(std::move(all), q);
  }

  // Geometric mean over templates of each template's median latency.
  double TemplateGeomean() const {
    std::vector<std::vector<double>> by_tmpl(n_tmpl_);
    for (const Entry& e : log_) by_tmpl[e.tmpl].push_back(e.ms);
    double log_sum = 0;
    size_t seen = 0;
    for (auto& v : by_tmpl) {
      if (v.empty()) continue;
      log_sum += std::log(std::max(perfbench::Quantile(std::move(v), 0.5), 1e-9));
      ++seen;
    }
    return seen ? std::exp(log_sum / static_cast<double>(seen)) : 0;
  }

 private:
  struct Entry {
    float ms;
    uint32_t tmpl;
  };
  std::vector<uint32_t> tmpl_of_;
  size_t n_tmpl_ = 0;
  std::vector<Entry> log_;
};

// What the timed phase of any workload records.
struct Samples {
  Samples(const std::vector<Op>& ops, double seconds)
      : latencies(ops, seconds),
        first_rows(ops.size()),
        same(ops.size(), 0),
        differ(ops.size(), 0),
        first_stats(ops.size(), nullptr) {}

  LatencyLog latencies;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // threw or finished other than kOk
  uint64_t rejected = 0;
  // Per distinct op: its first result and how many of its kOk ops returned
  // the same rows (`same`) or other rows (`differ`). The reference check
  // after the timed phase compares only the first result.
  std::vector<TablePtr> first_rows;
  std::vector<uint64_t> same;
  std::vector<uint64_t> differ;
  double wall_s = 0;
  rusage ru_before{};
  rusage ru_after{};
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  // First completed execution of each distinct op (exact per-op counts).
  std::vector<const gopt::ExecStats*> first_stats;
  std::deque<gopt::ExecStats> stats_store;

  // Layer samples, kept by the traced run only.
  std::vector<double> exec_ms;
  std::vector<double> queue_ms;
  std::vector<double> overhead_ms;     // serve: latency - queue - exec
  std::vector<double> unaccounted_ms;  // latency - timed layers
  PlanStats plans;                     // adhoc_plan: every op's planning
};

void AddSample(Samples* sm, size_t idx, double latency_ms) {
  ++sm->attempted;
  sm->latencies.Add(idx, latency_ms);
}

void Record(Samples* sm, size_t idx, double latency_ms, const ExecOutcome* out,
            bool threw) {
  AddSample(sm, idx, latency_ms);
  if (threw || !out || out->status != ExecStatus::kOk) {
    ++sm->failed;
    if (out && out->status == ExecStatus::kRejected) ++sm->rejected;
    return;
  }
  if (!sm->first_rows[idx]) {
    sm->first_rows[idx] = out->table_ptr;
    sm->stats_store.push_back(out->stats);
    sm->first_stats[idx] = &sm->stats_store.back();
  }
  if (out->table_ptr == sm->first_rows[idx] ||
      out->table().SameRows(*sm->first_rows[idx])) {
    ++sm->same[idx];
  } else {
    ++sm->differ[idx];
  }
}

void ChildPipelines(Tracer* tr, const ExecOutcome& out,
                    Clock::time_point start, uint64_t op, int tid,
                    int64_t parent) {
  for (const auto& p : out.stats.pipelines) {
    tr->Add("exec.pipeline", start, p.ms, op, tid, parent);
    start += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(p.ms));
  }
}

// Lays a PlanTrace's passes out back to back from `start` under `parent`.
void ChildPasses(Tracer* tr, const gopt::PlanTrace& t,
                 Clock::time_point start, uint64_t op, int tid,
                 int64_t parent) {
  static const std::map<std::string, const char*> kNames = {
      {"parse", "opt.parse"},
      {"rbo", "opt.rbo"},
      {"field_trim", "opt.field_trim"},
      {"type_inference", "opt.type_inference"},
      {"cbo", "opt.cbo"},
      {"physical_conversion", "opt.physical"}};
  for (const auto& e : t.passes) {
    auto it = kNames.find(e.pass);
    tr->Add(it != kNames.end() ? it->second : "opt.other_pass", start, e.ms,
            op, tid, parent);
    start += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(e.ms));
  }
}

void CacheDelta(Samples* sm, const gopt::PlanCacheStats& a,
                const gopt::PlanCacheStats& b) {
  sm->plan_hits = b.hits - a.hits;
  sm->plan_misses = b.misses - a.misses;
}

void RunIcServe(Setup& s, double seconds,
                Tracer* tr, Samples* sm) {
  struct Done {
    int client;
    size_t idx;
    Clock::time_point ready;
    ExecOutcome out;
    bool threw;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Done> done;  // guarded by mu

  const size_t n = s.ops.size();
  size_t next = 0;
  std::vector<Clock::time_point> submitted(kServeClients);
  auto submit = [&](int client) {
    const size_t idx = next++ % n;
    submitted[client] = Clock::now();
    s.serve->RunAsync(
        s.ops[idx].text,
        [&mu, &cv, &done, client, idx](ExecOutcome out,
                                       std::exception_ptr err) {
          const auto ready = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          done.push_back({client, idx, ready, std::move(out), err != nullptr});
          cv.notify_one();
        },
        {}, s.ops[idx].lang);
  };

  const auto cache0 = s.engine->plan_cache_stats();
  getrusage(RUSAGE_SELF, &sm->ru_before);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  int outstanding = 0;
  for (int c = 0; c < kServeClients; ++c, ++outstanding) submit(c);
  auto end = start;
  while (outstanding > 0) {
    std::deque<Done> batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (Done& d : batch) {
      --outstanding;
      const auto sub = submitted[d.client];
      // Resubmit first so the client's next query overlaps our checks.
      if (d.ready < deadline) {
        submit(d.client);
        ++outstanding;
      }
      const double lat = Ms(sub, d.ready);
      const uint64_t op_id = sm->attempted + 1;
      Record(sm, d.idx, lat, &d.out, d.threw);
      end = std::max(end, d.ready);
      if (d.threw || !tr->enabled()) continue;
      sm->exec_ms.push_back(d.out.ms);
      sm->queue_ms.push_back(d.out.queue_ms);
      sm->overhead_ms.push_back(lat - d.out.queue_ms - d.out.ms);
      {
        const int64_t root = tr->Add("serve.op", sub, d.ready, op_id,
                                     1 + d.client);
        tr->Add("serve.queue", sub, d.out.queue_ms, op_id, 1 + d.client,
                root);
        // The worker's execution ends just before delivery; its start is
        // placed from the duration the engine reports.
        const auto exec_start =
            d.ready - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(d.out.ms));
        const int64_t ex = tr->Add("exec.execute", exec_start, d.out.ms,
                                   op_id, 1 + d.client, root);
        ChildPipelines(tr, d.out, exec_start, op_id, 1 + d.client, ex);
      }
    }
  }
  sm->wall_s = Ms(start, end) / 1000;
  getrusage(RUSAGE_SELF, &sm->ru_after);
  CacheDelta(sm, cache0, s.engine->plan_cache_stats());
}

void RunBiDist(Setup& s, double seconds,
               Tracer* tr, Samples* sm) {
  const size_t n = s.ops.size();
  const auto cache0 = s.engine->plan_cache_stats();
  getrusage(RUSAGE_SELF, &sm->ru_before);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto now = start;
  for (size_t i = 0; now < deadline; ++i) {
    const size_t idx = i % n;
    const Op& op = s.ops[idx];
    const auto t0 = Clock::now();
    ExecOutcome out;
    bool threw = false;
    auto t1 = t0;
    try {
      Prepared prep = s.engine->Prepare(op.text, op.lang);
      t1 = Clock::now();
      out = s.engine->Execute(prep);
    } catch (const std::exception&) {
      threw = true;
    }
    now = Clock::now();
    const double lat = Ms(t0, now);
    const uint64_t op_id = sm->attempted + 1;
    Record(sm, idx, lat, &out, threw);
    if (threw || !tr->enabled()) continue;
    sm->exec_ms.push_back(out.ms);
    sm->unaccounted_ms.push_back(lat - Ms(t0, t1) - out.ms);
    {
      const int64_t root = tr->Add("engine.op", t0, now, op_id, 0);
      tr->Add("engine.prepare", t0, t1, op_id, 0, root);
      const int64_t ex = tr->Add("engine.execute", t1, now, op_id, 0, root);
      const int64_t run = tr->Add("exec.execute", t1, out.ms, op_id, 0, ex);
      ChildPipelines(tr, out, t1, op_id, 0, run);
    }
  }
  sm->wall_s = Ms(start, now) / 1000;
  getrusage(RUSAGE_SELF, &sm->ru_after);
  CacheDelta(sm, cache0, s.engine->plan_cache_stats());
}

// Moves the calling thread to the next CPU of its affinity mask on each
// PinNext, and restores the mask when destroyed. On the shared host each
// vCPU's speed drifts on its own (the same single-threaded run measured
// 0.26 ms p50 on one vCPU and 0.40 ms on another, and which vCPU is slow
// changes within a minute); a thread the scheduler leaves on one vCPU for a
// whole run inherits that vCPU's state, so runs came out fast or slow as a
// whole. Rotating every kRotateOps ops lets every run sample every vCPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof mask_, &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Best effort: where affinity cannot be set the thread stays unpinned.
  void PinNext() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Ad-hoc ops only plan; each distinct op's plan is checked once, untimed,
// after the timed phase (Reference::plan_ok).
void RunAdhocPlan(Setup& s, double seconds,
                  Tracer* tr, Samples* sm) {
  const size_t n = s.ops.size();
  CpuRotation cpus;
  uint64_t hits = 0, misses = 0;
  getrusage(RUSAGE_SELF, &sm->ru_before);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  double busy_ms = 0;
  auto now = start;
  for (size_t i = 0; now < deadline; ++i) {
    const size_t idx = i % n;
    const Op& op = s.ops[idx];
    if (i % kRotateOps == 0) cpus.PinNext();
    s.engine->ClearPlanCache();  // untimed: every op must miss
    const auto t0 = Clock::now();
    Prepared prep;
    bool threw = false;
    try {
      prep = s.engine->Prepare(op.text, op.lang);
    } catch (const std::exception&) {
      threw = true;
    }
    now = Clock::now();
    const double lat = Ms(t0, now);
    busy_ms += lat;
    AddSample(sm, idx, lat);
    if (threw) {
      ++sm->failed;
      continue;
    }
    (prep.from_cache ? hits : misses) += 1;
    ++sm->same[idx];
    if (tr->enabled() && prep.trace) {
      sm->plans.Add(lat, *prep.trace);
      const int64_t root = tr->Add("engine.prepare", t0, now, sm->attempted, 0);
      ChildPasses(tr, *prep.trace, t0, sm->attempted, 0, root);
    }
  }
  // The timed phase is the sum of the Prepare calls: the untimed cache
  // clears between them are not part of any op.
  sm->wall_s = busy_ms / 1000;
  getrusage(RUSAGE_SELF, &sm->ru_after);
  sm->plan_hits = hits;
  sm->plan_misses = misses;
}

// ------------------------------------------------------------- reporting

struct Metric {
  double value;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

double RusageCpuMs(const rusage& r) {
  return (r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1e3 +
         (r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e3;
}

MetricMap EndToEnd(const Samples& sm, const std::vector<double>& setup_times,
                   double peak_rss_mb, uint64_t ok) {
  const double n = static_cast<double>(std::max<uint64_t>(sm.attempted, 1));
  MetricMap m;
  m["setup_s"] = {Quantile(setup_times, 0.5), "s"};
  m["latency_p50_ms"] = {sm.latencies.Quantile(0.5), "ms"};
  m["latency_p99_ms"] = {sm.latencies.Quantile(0.99), "ms"};
  m["qps"] = {static_cast<double>(sm.attempted) / std::max(sm.wall_s, 1e-9),
              "1/s"};
  m["tmpl_geomean_ms"] = {sm.latencies.TemplateGeomean(), "ms"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  m["ok_frac"] = {static_cast<double>(ok) / n, "ratio"};
  return m;
}

struct ProbeSamples {
  std::vector<double> parameterize_us;
  std::vector<double> prepare_hit_us;
};

// After the timed phase: time ParameterizeQuery and a plan-cache-hit
// Prepare on every distinct op text. Kept out of the timed loop so the
// probes never perturb the end-to-end numbers.
ProbeSamples Probe(Setup& s, Tracer* tr) {
  ProbeSamples p;
  const size_t rounds =
      std::max<size_t>(1, (kProbeSamples + s.ops.size() - 1) / s.ops.size());
  for (const Op& op : s.ops) s.engine->Prepare(op.text, op.lang);  // warm
  for (size_t r = 0; r < rounds; ++r) {
    for (const Op& op : s.ops) {
      const auto t0 = Clock::now();
      auto pq = gopt::ParameterizeQuery(op.text, op.lang);
      const auto t1 = Clock::now();
      Prepared prep = s.engine->Prepare(op.text, op.lang);
      const auto t2 = Clock::now();
      if (pq.text.empty()) throw std::logic_error("empty parameterization");
      p.parameterize_us.push_back(Ms(t0, t1) * 1000);
      if (prep.from_cache) p.prepare_hit_us.push_back(Ms(t1, t2) * 1000);
      tr->Add("lang.parameterize", t0, t1, 0, 0);
      tr->Add("engine.prepare_hit", t1, t2, 0, 0);
    }
  }
  return p;
}

MetricMap PerLayer(const std::string& workload, const Setup& s,
                   const Samples& sm, const ProbeSamples& probe, const PlanStats& plans,
                   const std::vector<const gopt::ExecStats*>& exec_stats,
                   const std::vector<double>& exec_ms) {
  MetricMap m;
  m["ldbc.generate_s"] = {s.generate_s, "s"};
  m["meta.glogue_build_s"] = {s.glogue_s, "s"};
  m["store.build_s"] = {s.store_s, "s"};
  m["engine.warmup_s"] = {s.warmup_s, "s"};
  m["lang.parameterize_us"] = {Quantile(probe.parameterize_us, 0.5), "us"};
  const double hit_p50_us = Quantile(probe.prepare_hit_us, 0.5);
  m["engine.prepare_hit_us"] = {hit_p50_us, "us"};
  const uint64_t lookups = sm.plan_hits + sm.plan_misses;
  m["plan_cache.hit_ratio"] = {
      lookups ? static_cast<double>(sm.plan_hits) / lookups : 0, "ratio"};

  // Planner passes over every cold planning the workload did.
  auto pass = [&](const char* name, double q) {
    auto it = plans.pass_ms.find(name);
    return it == plans.pass_ms.end() ? 0 : Quantile(it->second, q);
  };
  const double np = static_cast<double>(std::max<size_t>(plans.count, 1));
  m["opt.parse_ms"] = {pass("parse", 0.5), "ms"};
  m["opt.rbo_ms"] = {pass("rbo", 0.5), "ms"};
  m["opt.field_trim_ms"] = {pass("field_trim", 0.5), "ms"};
  m["opt.type_inference_ms"] = {pass("type_inference", 0.5), "ms"};
  m["opt.physical_ms"] = {pass("physical_conversion", 0.5), "ms"};
  m["opt.cbo_ms_p50"] = {pass("cbo", 0.5), "ms"};
  m["opt.cbo_ms_p99"] = {pass("cbo", 0.99), "ms"};
  m["opt.prepare_unaccounted_ms"] = {Quantile(plans.unaccounted_ms, 0.5),
                                     "ms"};
  m["opt.cbo_patterns_per_op"] = {plans.patterns / np, "count"};
  m["opt.rules_fired_per_op"] = {plans.rules / np, "count"};

  // Executor counts over one execution of each distinct op.
  double rows = 0, vec = 0, gen = 0, comm = 0, exch = 0, cut = 0;
  size_t ne = 0;
  for (const auto* st : exec_stats) {
    if (!st) continue;
    ++ne;
    rows += static_cast<double>(st->rows_produced);
    vec += static_cast<double>(st->vec_dispatch);
    gen += static_cast<double>(st->gen_dispatch);
    comm += static_cast<double>(st->comm_rows);
    exch += static_cast<double>(st->exchanges);
    cut = static_cast<double>(st->store_cut_edges);
  }
  const double nd = static_cast<double>(std::max<size_t>(ne, 1));
  m["exec.execute_ms_p50"] = {Quantile(exec_ms, 0.5), "ms"};
  m["exec.execute_ms_p99"] = {Quantile(exec_ms, 0.99), "ms"};
  m["exec.rows_produced_per_op"] = {rows / nd, "count"};
  m["exec.vec_dispatch_frac"] = {vec + gen > 0 ? vec / (vec + gen) : 0,
                                 "ratio"};
  m["exec.comm_rows_per_op"] = {comm / nd, "count"};
  m["exec.exchanges_per_op"] = {exch / nd, "count"};
  m["store.edge_cut_frac"] = {
      cut / static_cast<double>(std::max<size_t>(s.ldbc.graph->NumEdges(), 1)),
      "ratio"};

  m["serve.queue_ms_p50"] = {Quantile(sm.queue_ms, 0.5), "ms"};
  m["serve.queue_ms_p99"] = {Quantile(sm.queue_ms, 0.99), "ms"};
  const double overhead_p50 = Quantile(sm.overhead_ms, 0.5);
  m["serve.overhead_ms"] = {overhead_p50, "ms"};
  m["serve.rejected"] = {static_cast<double>(sm.rejected), "count"};

  const double n = static_cast<double>(std::max<uint64_t>(sm.attempted, 1));
  const auto ctx = [](const rusage& r) {
    return static_cast<double>(r.ru_nvcsw + r.ru_nivcsw);
  };
  m["proc.cpu_ms_per_op"] = {
      (RusageCpuMs(sm.ru_after) - RusageCpuMs(sm.ru_before)) / n, "ms"};
  m["proc.ctx_switches_per_op"] = {
      (ctx(sm.ru_after) - ctx(sm.ru_before)) / n, "count"};
  // Through the serving layer the worker's Prepare is not visible per op;
  // its cache-hit cost is charged at the probe's median.
  m["engine.unaccounted_ms"] = {
      workload == "ic_serve"     ? overhead_p50 - hit_p50_us / 1000
      : workload == "adhoc_plan" ? Quantile(plans.unaccounted_ms, 0.5)
                                 : Quantile(sm.unaccounted_ms, 0.5),
      "ms"};
  // Same statistic as the untraced latency_p50_ms: the difference is the
  // tracing overhead.
  m["trace.latency_p50_ms"] = {sm.latencies.Quantile(0.5), "ms"};
  return m;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  if (args.dump_ops) {
    auto ldbc = gopt::GenerateLdbc(kScaleFactor, kGraphSeed);
    for (const Op& op : MakeOps(args.workload, *ldbc.graph, args.seed)) {
      std::printf("%s\t%s\t%s\n", op.tmpl.c_str(),
                  op.lang == gopt::Language::kGremlin ? "gremlin" : "cypher",
                  op.text.c_str());
    }
    return 0;
  }

  Tracer tr(args.trace);
  std::vector<double> setup_times;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();
    // The peak mark ends up covering the last set-up and the timed phase.
    if (!ResetPeakRss() && k == 0) {
      std::printf("# peak_rss_mb covers the whole process (no clear_refs)\n");
    }
    Tracer discard(false);
    s = SetUp(args, k + 1 == kSetups ? &tr : &discard);
    setup_times.push_back(s->total_s);
  }
  Samples sm(s->ops, args.seconds);
  if (args.workload == "ic_serve") {
    RunIcServe(*s, args.seconds, &tr, &sm);
  } else if (args.workload == "bi_dist") {
    RunBiDist(*s, args.seconds, &tr, &sm);
  } else {
    RunAdhocPlan(*s, args.seconds, &tr, &sm);
  }
  const double peak_rss_mb = PeakRssMb();

  // The correctness check. An op is right when it finished kOk with the
  // same rows as its distinct op's first result, and that first result (or
  // for ad-hoc ops, one run of the plan) matches the reference.
  const std::unique_ptr<const Reference> ref = BuildReference(args);
  if (ref->texts.size() != s->ops.size()) {
    throw std::logic_error("op stream differs between two generations");
  }
  uint64_t ok = 0;
  std::map<std::string, uint64_t> mismatches;  // ops with wrong rows
  for (size_t i = 0; i < s->ops.size(); ++i) {
    if (ref->texts[i] != s->ops[i].text) {
      throw std::logic_error("op stream differs between two generations");
    }
    const bool right = args.workload == "adhoc_plan"
                           ? ref->plan_ok[i]
                           : sm.first_rows[i] &&
                                 sm.first_rows[i]->SameRows(*ref->rows[i]);
    ok += right ? sm.same[i] : 0;
    const uint64_t wrong = sm.differ[i] + (right ? 0 : sm.same[i]);
    if (wrong) mismatches[s->ops[i].tmpl] += wrong;
  }

  std::vector<const gopt::ExecStats*> exec_stats;
  std::vector<double> exec_ms;
  if (args.workload == "adhoc_plan") {
    // Ad-hoc ops do not execute; their executor numbers come from the
    // reference phase's one run of each optimized plan.
    for (const auto& st : ref->plan_stats) exec_stats.push_back(&st);
    exec_ms = ref->plan_exec_ms;
  } else {
    exec_stats = sm.first_stats;
    exec_ms = sm.exec_ms;
  }

  MetricMap metrics;
  if (args.trace) {
    const ProbeSamples probe = Probe(*s, &tr);
    metrics = PerLayer(args.workload, *s, sm, probe,
                       args.workload == "adhoc_plan" ? sm.plans : s->plans,
                       exec_stats, exec_ms);
    if (!args.trace_out.empty()) {
      if (!tr.Write(args.trace_out)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("# trace: %zu spans -> %s\n", tr.size(),
                  args.trace_out.c_str());
    }
  } else {
    metrics = EndToEnd(sm, setup_times, peak_rss_mb, ok);
  }

  // A wrong result outside the known-defect list makes the run incorrect.
  bool correct = sm.attempted > 0;
  for (const auto& [tmpl, count] : mismatches) {
    const bool known = KnownDefects().count(tmpl) > 0;
    std::printf("# %s: %s returned rows different from the reference on "
                "%llu ops\n",
                known ? "known defect" : "UNEXPECTED MISMATCH", tmpl.c_str(),
                static_cast<unsigned long long>(count));
    if (!known) correct = false;
  }

  std::set<std::string> templates;
  for (const Op& op : s->ops) templates.insert(op.tmpl);
  std::printf("# workload=%s seed=%llu ops=%llu distinct_ops=%zu "
              "templates=%zu timed_s=%.3f reference_s=%.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(sm.attempted), s->ops.size(),
              templates.size(), sm.wall_s, ref->seconds);
  for (const auto& [name, met] : metrics) {
    std::printf("#   %-28s %14.6g %-6s (n=%llu ops)\n", name.c_str(),
                met.value, met.unit.c_str(),
                static_cast<unsigned long long>(sm.attempted));
  }

  // Build and run context, one JSON line before the result.
  std::printf("{\"context\": {\"workload\": ");
  PrintJsonString(args.workload);
  std::printf(", \"seed\": %llu, \"scale_factor\": %g, \"graph_seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"setups\": %d, "
              "\"ops\": %llu, \"distinct_ops\": %zu, \"templates\": %zu, "
              "\"nproc\": %ld, \"build_type\": ",
              static_cast<unsigned long long>(args.seed), kScaleFactor,
              static_cast<unsigned long long>(kGraphSeed), args.seconds,
              args.trace ? 1 : 0, kSetups,
              static_cast<unsigned long long>(sm.attempted), s->ops.size(),
              templates.size(), sysconf(_SC_NPROCESSORS_ONLN));
  PrintJsonString(PERFBENCH_BUILD_TYPE);
  std::printf(", \"compiler\": ");
  PrintJsonString(PERFBENCH_CXX_ID);
  std::printf(", \"cxx_flags\": ");
  PrintJsonString(PERFBENCH_CXX_FLAGS);
  std::printf(", \"commit\": ");
  PrintJsonString(args.commit);
  std::printf("}}\n");

  const auto& names = args.trace ? PerLayerNames() : EndToEndNames();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(sm.attempted),
              static_cast<unsigned long long>(sm.failed));
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric& met = metrics.at(names[i]);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", names[i].c_str(), met.value, met.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
