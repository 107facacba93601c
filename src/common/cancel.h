#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace gopt {

/// Typed completion status of one query execution (ExecOutcome::status).
/// kOk must stay 0: CancelState packs the status into an atomic word whose
/// zero value means "not tripped".
enum class ExecStatus : int {
  kOk = 0,        ///< ran to completion
  kCancelled = 1, ///< explicit Cancel() or row budget exceeded
  kTimeout = 2,   ///< per-query time budget expired
  kRejected = 3,  ///< refused by admission control; never executed
};

inline const char* ExecStatusName(ExecStatus s) {
  switch (s) {
    case ExecStatus::kOk: return "ok";
    case ExecStatus::kCancelled: return "cancelled";
    case ExecStatus::kTimeout: return "timeout";
    case ExecStatus::kRejected: return "rejected";
  }
  return "unknown";
}

/// Thrown by cooperative cancellation checks (CancelToken::Check) at
/// morsel/batch boundaries inside the executors and between planning
/// passes. GOptEngine::Execute converts it into a typed ExecOutcome;
/// Prepare lets it propagate (there is no partial plan to return).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(ExecStatus status)
      : std::runtime_error(status == ExecStatus::kTimeout
                               ? "query exceeded its time budget"
                               : "query cancelled"),
        status_(status) {}
  ExecStatus status() const { return status_; }

 private:
  ExecStatus status_;
};

/// Shared cancellation state of one in-flight query: an atomic tripped
/// flag (first trip wins and fixes the status), an optional wall-clock
/// deadline, and an optional produced-row budget. Every field is atomic,
/// so any thread may Cancel() while executor workers poll — the whole
/// object is ThreadSanitizer-clean by construction.
class CancelState {
 public:
  /// Requests cooperative cancellation. Idempotent; a later Cancel cannot
  /// overwrite an earlier timeout (first trip wins).
  void Cancel() { Trip(ExecStatus::kCancelled); }

  /// Arms the time budget: checks after `deadline` trip as kTimeout.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// Arms the row budget: once the executors have produced more than
  /// `max_rows` rows (summed per-operator emissions, the same count as
  /// ExecStats::rows_produced), the query trips as kCancelled.
  void set_row_budget(uint64_t max_rows) {
    max_rows_.store(max_rows, std::memory_order_release);
  }

  /// Charges `n` produced rows against the row budget (no-op when none).
  void AddRows(uint64_t n) {
    const uint64_t budget = max_rows_.load(std::memory_order_acquire);
    if (budget == 0) return;
    if (rows_.fetch_add(n, std::memory_order_relaxed) + n > budget) {
      Trip(ExecStatus::kCancelled);
    }
  }

  /// True once the query should stop. Also the deadline poll: the first
  /// check past an armed deadline trips the state as kTimeout.
  bool Expired() {
    if (flag_.load(std::memory_order_acquire) != 0) return true;
    const int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != 0 && std::chrono::steady_clock::now().time_since_epoch().count()
                       >= dl) {
      Trip(ExecStatus::kTimeout);
      return true;
    }
    return false;
  }

  /// The tripped status (kOk while still running).
  ExecStatus status() const {
    return static_cast<ExecStatus>(flag_.load(std::memory_order_acquire));
  }

 private:
  void Trip(ExecStatus s) {
    int expected = 0;
    flag_.compare_exchange_strong(expected, static_cast<int>(s),
                                  std::memory_order_acq_rel);
  }

  std::atomic<int> flag_{0};          ///< 0 = running, else ExecStatus
  std::atomic<int64_t> deadline_ns_{0};  ///< steady_clock epoch ns; 0 = none
  std::atomic<uint64_t> max_rows_{0};    ///< 0 = unlimited
  std::atomic<uint64_t> rows_{0};        ///< produced rows charged so far
};

/// Cheap copyable handle to a CancelState, threaded from the serving layer
/// through Prepare/Execute into the runtime. A default-constructed
/// token is "never cancelled" — every check is a null test — so the
/// blocking engine API pays nothing for the plumbing.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::shared_ptr<CancelState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// Requests cancellation (no-op on a null token).
  void Cancel() const {
    if (state_) state_->Cancel();
  }

  /// True once the query should stop (trips an expired deadline).
  bool Expired() const { return state_ && state_->Expired(); }

  /// The cooperative check executors call at morsel/batch boundaries:
  /// throws CancelledError carrying the typed status once tripped.
  void Check() const {
    if (state_ && state_->Expired()) throw CancelledError(state_->status());
  }

  /// Charges produced rows against the row budget (no-op on a null token).
  void AddRows(uint64_t n) const {
    if (state_) state_->AddRows(n);
  }

  ExecStatus status() const {
    return state_ ? state_->status() : ExecStatus::kOk;
  }

  const std::shared_ptr<CancelState>& state() const { return state_; }

 private:
  std::shared_ptr<CancelState> state_;
};

}  // namespace gopt
