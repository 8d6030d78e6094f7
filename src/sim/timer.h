// One-shot rearmable timer — the idiom every protocol module uses for
// retransmission timeouts, delayed ACKs, idle timers, etc.
#pragma once

#include <functional>
#include <utility>

#include "common/types.h"
#include "sim/simulator.h"

namespace mpq::sim {

/// Set/reset/cancel semantics over one EventKind::kTimer event on the
/// Simulator's queue (the model-checking explorer reorders timers but
/// never drops them). The callback is stored once at construction; the
/// event only holds a pointer to it, and re-arming a pending timer moves
/// its event in place, so once the slab is warm neither arming nor
/// re-arming allocates — which matters when thousands of connections
/// each re-arm RTO/ACK/pacing timers on every packet. The timer does not own its callback's
/// context; the owner must outlive any armed timer (owners cancel in
/// their destructors via RAII here).
class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { Cancel(); }

  /// Arm (or re-arm) the timer to fire at absolute time `when`. The
  /// Simulator frees the event before invoking the callback, so the
  /// callback may re-arm freely.
  void SetAt(TimePoint when) {
    deadline_ = when;
    event_ = sim_.IsPending(event_)
                 ? sim_.Reschedule(event_, when)
                 : sim_.ScheduleRefAt(
                       when, [callback = &callback_] { (*callback)(); },
                       EventKind::kTimer);
  }

  /// Arm (or re-arm) the timer to fire `delay` from now.
  void SetIn(Duration delay) { SetAt(sim_.now() + (delay < 0 ? 0 : delay)); }

  void Cancel() {
    sim_.Cancel(event_);
    deadline_ = kTimeInfinite;
  }

  bool armed() const { return sim_.IsPending(event_); }
  TimePoint deadline() const { return armed() ? deadline_ : kTimeInfinite; }

 private:
  Simulator& sim_;
  std::function<void()> callback_;
  Simulator::EventRef event_;
  TimePoint deadline_ = kTimeInfinite;
};

}  // namespace mpq::sim
