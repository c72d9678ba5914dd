// Admission control for the serving frontends: one gauge of callers
// inside a serve call, one limit, one shed answer.
//
// QueryFrontend counts whole batches (a batch past the limit is shed
// before it queues on the coordinator mutex); LiveFrontend counts single
// queries (a query past the limit is shed before the store runs). Both
// hold one AdmissionGate::Ticket for the whole call, so the gauge an
// operator reads counts every caller inside, shed or served.
//
// Thread safety: the gauge is one atomic; tickets may be taken and
// released from any thread.

#ifndef TOPK_SERVE_ADMISSION_H_
#define TOPK_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>

#include "core/statistics.h"
#include "core/status.h"

namespace topk {

/// Back-off hint, in milliseconds, that a shed caller is given.
inline constexpr double kShedRetryAfterMs = 50.0;

class AdmissionGate {
 public:
  /// Admits up to `limit` callers at once; 0 admits every caller.
  explicit AdmissionGate(size_t limit) : limit_(limit) {}

  /// One caller's place in the gauge, from construction to destruction
  /// whether or not it was admitted.
  class Ticket {
   public:
    explicit Ticket(AdmissionGate* gate)
        : gate_(gate),
          ahead_(gate->inflight_.fetch_add(1, std::memory_order_acq_rel)) {}
    ~Ticket() { gate_->inflight_.fetch_sub(1, std::memory_order_acq_rel); }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    /// False when the caller arrived with the gauge already at the limit.
    bool admitted() const {
      return gate_->limit_ == 0 || ahead_ < gate_->limit_;
    }

   private:
    AdmissionGate* gate_;
    size_t ahead_;  // callers holding a ticket when this one was taken
  };

  /// Callers currently holding a ticket (an operator load signal).
  size_t inflight() const { return inflight_.load(std::memory_order_acquire); }

 private:
  const size_t limit_;
  std::atomic<size_t> inflight_{0};
};

/// The answer for one shed request: ticks kLoadShed and returns
/// Unavailable (the caller retries after kShedRetryAfterMs).
inline Status ShedStatus(Statistics* stats) {
  AddTicker(stats, Ticker::kLoadShed);
  return Status::Unavailable("frontend at capacity; retry after back-off");
}

}  // namespace topk

#endif  // TOPK_SERVE_ADMISSION_H_
