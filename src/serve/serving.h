#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancel.h"
#include "src/engine/engine.h"
#include "src/serve/metrics.h"

namespace gopt {

/// What a full admission queue does to the next RunAsync
/// (docs/serving.md).
enum class AdmissionPolicy {
  kReject,  ///< complete the future immediately with status kRejected
  kBlock,   ///< block the submitting thread until a queue slot frees
};

/// Per-query budgets, enforced by cooperative cancellation. 0 = unlimited.
/// The time budget buys *planning + execution* time and is armed when a
/// worker dequeues the query — admission wait is reported separately as
/// ExecOutcome::queue_ms, never charged against the budget.
struct QueryBudget {
  double time_ms = 0;     ///< wall-clock budget; trip types as kTimeout
  uint64_t max_rows = 0;  ///< produced-row budget; trip types as kCancelled
};

/// Knobs of the serving layer. Deliberately NOT part of EngineOptions:
/// none of these affect produced plans, so they must never fragment plan-
/// or result-cache keys (they are excluded from OptionsFingerprint by
/// construction — tests/options_fingerprint_test.cc documents the split).
struct ServingOptions {
  /// Worker threads executing queries, decoupled from exec_threads: each
  /// worker drives one query at a time through the engine, which may
  /// itself fan out morsel workers.
  int worker_threads = 2;
  /// Admission queue capacity (queued, not yet running). Clamped to >= 1
  /// at construction: unlike the budget fields, 0 is NOT "unlimited" here
  /// (a 0-capacity queue under kBlock could never admit anything).
  size_t max_queue = 64;
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Default budgets for queries submitted without their own (session or
  /// per-call budgets override field-wise; 0 = unlimited).
  QueryBudget default_budget;
  /// Shared metrics registry; a private one is created when null, so
  /// several ServingEngines can expose one aggregated surface by
  /// injecting the same registry.
  std::shared_ptr<MetricsRegistry> metrics;
  /// Label value distinguishing this ServingEngine's serve-level series
  /// (gopt_serve_*) on a shared registry: when non-empty, every such
  /// series carries {instance="<value>"}. Counters and histograms merely
  /// split; the point-in-time gauges (queue depth, in-flight, qps, ...)
  /// NEED it — unlabeled, two engines sharing a registry resolve to the
  /// same gauge and the last collector to run clobbers the other's value.
  /// Leave empty for a private registry.
  std::string instance;
};

/// Per-session execution counters (Session::stats), by-value snapshot.
/// Every submission lands in exactly one terminal bucket:
/// submitted == ok + cancelled + timeout + rejected + errors once all
/// in-flight queries have resolved.
struct SessionStats {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t cancelled = 0;
  uint64_t timeout = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;  ///< genuine failures (parse, unbound params)
  double exec_ms = 0;   ///< summed ExecOutcome::ms of completed queries
  double queue_ms = 0;  ///< summed admission wait
};

/// Session configuration: default parameter bindings merged under every
/// query's own, the target engine (a name registered on the
/// ServingEngine; "" = the default engine), the query language, and the
/// session's budget defaults.
struct SessionOptions {
  ParamMap default_params;
  Language lang = Language::kCypher;
  std::string engine;  ///< RegisterEngine name; "" = the default engine
  QueryBudget budget;  ///< 0 fields fall back to ServingOptions defaults
};

/// One submitted query: the future plus the cancellation handle, so a
/// caller can abort its own query cooperatively (Submit overloads).
struct Submission {
  std::future<ExecOutcome> result;
  CancelToken cancel;
};

/// Completion callback of the RunAsync callback overload. `error` is null
/// for every typed outcome (including kCancelled/kTimeout/kRejected) and
/// carries the exception for genuine failures (parse errors, unbound
/// parameters) that the future API would rethrow from get().
using OutcomeCallback =
    std::function<void(ExecOutcome outcome, std::exception_ptr error)>;

class ServingEngine;

/// A logical client multiplexed over the ServingEngine's worker pool
/// (docs/serving.md): carries default params, a target engine and
/// per-session stats. Create via ServingEngine::OpenSession; the handle
/// is thread-safe and must not outlive its ServingEngine. Dropping the
/// last client handle while queries submitted through it are still
/// queued or executing is safe: each submission shares ownership of the
/// session until its outcome is delivered.
class Session : public std::enable_shared_from_this<Session> {
 public:
  /// Submits a query with the session's defaults (params merged under
  /// `params`, session budget, session engine).
  std::future<ExecOutcome> RunAsync(const std::string& query,
                                    ParamMap params = {});
  /// RunAsync plus the cancellation handle.
  Submission Submit(const std::string& query, ParamMap params = {});

  SessionStats stats() const;
  const SessionOptions& options() const { return opts_; }

 private:
  friend class ServingEngine;
  Session(ServingEngine* owner, const GOptEngine* engine, SessionOptions opts,
          std::shared_ptr<std::atomic<int64_t>> live_counter);

  void Record(const ExecOutcome& out, bool error);

  ServingEngine* owner_;
  const GOptEngine* engine_;
  SessionOptions opts_;
  /// The owner's live-session count; decremented by the destructor
  /// through the shared_ptr (safe even if it outlives a Render).
  struct CounterGuard {
    std::shared_ptr<std::atomic<int64_t>> c;
    ~CounterGuard() {
      if (c) c->fetch_sub(1, std::memory_order_relaxed);
    }
  } live_;
  mutable std::mutex mu_;
  SessionStats stats_;
};

/// The embeddable async serving layer over GOptEngine (docs/serving.md):
/// RunAsync schedules planning + execution on a fixed-size worker pool
/// behind a bounded admission queue, enforces per-query time/row budgets
/// via cooperative cancellation (CancelToken through Prepare/Execute into
/// both runtimes), multiplexes Sessions over the pool, and exposes a
/// Prometheus-style metrics surface (MetricsRegistry::Render).
///
/// Thread-safety: RunAsync/Submit/OpenSession/metrics are safe from any
/// thread, including racing Shutdown — a query admitted before shutdown
/// completes (drain semantics); one submitted after returns kRejected.
class ServingEngine {
 public:
  /// `engine` is the default target engine; it must outlive this object.
  explicit ServingEngine(const GOptEngine* engine, ServingOptions opts = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Registers an additional named target engine (sessions select it via
  /// SessionOptions::engine) — many logical graphs multiplexed over one
  /// pool. Not thread-safe against in-flight submissions; register
  /// engines before serving traffic.
  void RegisterEngine(const std::string& name, const GOptEngine* engine);

  /// Async execution: schedules Prepare + Execute on the worker pool and
  /// returns the typed outcome through a future. Admission control may
  /// complete it immediately with status kRejected (policy kReject, full
  /// queue, or shutdown); cooperative budgets complete it with
  /// kTimeout/kCancelled. Genuine errors (parse, unbound params) surface
  /// as exceptions from get().
  std::future<ExecOutcome> RunAsync(const std::string& query,
                                    ParamMap params = {},
                                    Language lang = Language::kCypher);
  /// Callback overload: `done` is invoked on the completing worker thread
  /// (or inline on rejection) instead of a future.
  void RunAsync(const std::string& query, OutcomeCallback done,
                ParamMap params = {}, Language lang = Language::kCypher);
  /// RunAsync with an explicit per-call budget plus the cancel handle.
  Submission Submit(const std::string& query, ParamMap params = {},
                    Language lang = Language::kCypher,
                    const QueryBudget* budget = nullptr);

  /// Opens a session over the pool (shared_ptr handle; sessions must not
  /// outlive the ServingEngine).
  std::shared_ptr<Session> OpenSession(SessionOptions opts = {});

  /// Stops admission (subsequent RunAsync returns kRejected), drains every
  /// already-admitted query to completion, and joins the workers.
  /// Idempotent and safe to race against RunAsync. Called by the
  /// destructor.
  void Shutdown();

  /// Queries queued but not yet picked up by a worker.
  size_t queue_depth() const;
  /// Queries currently executing on workers.
  int in_flight() const;

  MetricsRegistry& metrics() { return *metrics_; }
  const std::shared_ptr<MetricsRegistry>& metrics_handle() const {
    return metrics_;
  }

  const ServingOptions& options() const { return opts_; }

 private:
  friend class Session;

  struct Task {
    std::string query;
    ParamMap params;
    Language lang = Language::kCypher;
    const GOptEngine* engine = nullptr;
    QueryBudget budget;
    std::shared_ptr<CancelState> cancel;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<ExecOutcome> promise;
    OutcomeCallback callback;  ///< set instead of using the promise
    /// Shared ownership: the task keeps its session alive until the
    /// outcome is delivered, so clients may drop their last handle while
    /// submissions are still queued or executing.
    std::shared_ptr<Session> session;
  };

  /// The shared submission path. `session` may be null; `budget` (if any)
  /// overrides field-wise. Returns the cancel token (invalid when the
  /// submission was rejected synchronously).
  Submission SubmitTask(const GOptEngine* engine, const std::string& query,
                        ParamMap params, Language lang,
                        const QueryBudget* budget,
                        std::shared_ptr<Session> session,
                        OutcomeCallback callback);
  void WorkerLoop();
  /// Runs one task on its engine under its budget; never throws (errors
  /// land in the outcome delivery).
  void RunTask(Task* t);
  /// Delivers a terminal outcome (promise or callback) and records
  /// metrics + session stats.
  void Complete(Task* t, ExecOutcome out, std::exception_ptr error);
  QueryBudget EffectiveBudget(const QueryBudget* call,
                              const QueryBudget* session) const;
  void RegisterEngineMetrics(const std::string& label, const GOptEngine* e);

  const GOptEngine* engine_;
  ServingOptions opts_;
  std::shared_ptr<MetricsRegistry> metrics_;
  std::map<std::string, const GOptEngine*> engines_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait for tasks/shutdown
  std::condition_variable cv_space_;  ///< kBlock submitters wait for room
  std::deque<std::unique_ptr<Task>> queue_;
  bool stop_ = false;
  int inflight_ = 0;

  /// Serializes Shutdown callers (the joins happen once, outside mu_).
  std::mutex lifecycle_mu_;
  std::vector<std::thread> workers_;

  /// The point-in-time numbers the Render-time collector reads. Held by
  /// shared_ptr and captured by the collector closure, so the closure
  /// never dereferences this ServingEngine. The destructor additionally
  /// unregisters every collector it added (RemoveCollector), so a shared
  /// MetricsRegistry outliving this ServingEngine — or the engines whose
  /// cache collectors were registered through it — renders the frozen
  /// last-collected values instead of dangling.
  struct LiveStats {
    std::atomic<int64_t> queue_depth{0};
    std::atomic<int64_t> inflight{0};
    std::atomic<int64_t> sessions{0};
    std::atomic<uint64_t> completed{0};  ///< terminal outcomes (qps source)
    std::chrono::steady_clock::time_point started;
  };
  std::shared_ptr<LiveStats> live_;

  /// Ids of every collector this engine registered on metrics_, removed
  /// by the destructor so an injected registry never runs them after the
  /// engine (or its target GOptEngines) is gone.
  std::vector<uint64_t> collector_ids_;

  // Hot-path instruments, resolved once at construction.
  Counter* queries_ok_ = nullptr;
  Counter* queries_cancelled_ = nullptr;
  Counter* queries_timeout_ = nullptr;
  Counter* queries_rejected_ = nullptr;
  Counter* queries_error_ = nullptr;
  Counter* admission_rejected_ = nullptr;
  Histogram* latency_ms_ = nullptr;
  Histogram* queue_wait_ms_ = nullptr;
};

}  // namespace gopt
