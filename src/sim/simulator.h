// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's Mininet testbed. All
// protocol stacks in this repository are event-driven state machines wired
// to a Simulator: link transmissions, propagation delays and protocol
// timers are all events on one queue, executed in strict timestamp order
// (FIFO among equal timestamps), so every run is exactly reproducible.
//
// Schedule control (docs/MODEL_CHECKING.md): events carry an EventKind
// and a scope tag, the pending set is enumerable (PendingEvents), and a
// specific pending event can be fired out of timestamp order (FireEvent)
// or duplicated (DuplicateEvent). Normal runs never use these hooks —
// Run/RunOne keep the strict (timestamp, id) order — but the mpq_model
// explorer uses them to branch over every delivery/timer interleaving a
// bounded amount of jitter could produce.
//
// Storage: pending events live in a slab of slots that is reused as
// events fire, and a datagram in flight rides in its event's slot, so
// once the slab is warm an event whose callback fits std::function's
// inline buffer is scheduled and fired without allocating. The simulator
// also keeps the world's free list of datagram payload buffers
// (TakeBuffer / ReturnBuffer; docs/INTERNALS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.h"
#include "sim/datagram.h"
#include "sim/timer_wheel.h"

namespace mpq::sim {

/// What an event models — the explorer's choice vocabulary. Deliveries
/// are the adversary's targets (drop/duplicate model wire faults);
/// timers and generic events may only be reordered, never dropped.
enum class EventKind : std::uint8_t { kGeneric = 0, kDelivery = 1, kTimer = 2 };

class Simulator {
 public:
  using EventId = std::uint64_t;
  using Callback = std::function<void()>;
  /// Callback of an event that carries a datagram (ScheduleDatagramAt).
  using DatagramCallback = std::function<void(Datagram&&)>;

  /// One pending event as the explorer sees it. `scope` is an
  /// independence class assigned at schedule time (deliveries use
  /// 1 + destination node; 0 means "dependent with everything").
  struct PendingEventInfo {
    EventId id = 0;
    TimePoint when = 0;
    EventKind kind = EventKind::kGeneric;
    std::uint32_t scope = 0;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` microseconds from now (delay < 0 is
  /// clamped to 0). Returns an id usable with Cancel().
  EventId Schedule(Duration delay, Callback fn,
                   EventKind kind = EventKind::kGeneric,
                   std::uint32_t scope = 0) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn), kind,
                      scope);
  }

  /// Schedule `fn` at absolute time `when` (clamped to now).
  EventId ScheduleAt(TimePoint when, Callback fn,
                     EventKind kind = EventKind::kGeneric,
                     std::uint32_t scope = 0);

  /// Schedule `fn(datagram)` at `when` (clamped to now). The datagram is
  /// kept in the event's own slot rather than in a callback capture, so
  /// a link hands a packet from event to event without allocating, and
  /// DuplicateEvent copies the bytes along with the event.
  EventId ScheduleDatagramAt(TimePoint when, Datagram datagram,
                             DatagramCallback fn,
                             EventKind kind = EventKind::kGeneric,
                             std::uint32_t scope = 0);

  /// Cancel a pending event. Cancelling an already-fired or unknown id is
  /// a harmless no-op (protocol timers race with the events that clear
  /// them; this mirrors how timer APIs behave in real stacks).
  void Cancel(EventId id);

  /// Arm `entry` to fire at `when` (clamped to now) on the shared timer
  /// wheel — the path sim::Timer uses: the callback is stored once by its
  /// owner and never copied per arm. Exactly one event
  /// id is consumed per arm (the same budget a ScheduleAt-based timer
  /// would use), so the merged (when, id) firing order is identical to
  /// scheduling the timer as a heap event. Returns the assigned id.
  EventId ArmTimer(TimerEntry& entry, TimePoint when);

  /// Disarm a wheel timer (no-op if not armed).
  void CancelTimer(TimerEntry& entry);

  /// Run until the queue is empty or simulated time would exceed `until`.
  /// Returns the number of events executed.
  std::uint64_t Run(TimePoint until = kTimeInfinite);

  /// Execute exactly one runnable event. Returns false if the queue is
  /// empty or the next event is later than `until`.
  bool RunOne(TimePoint until = kTimeInfinite);

  // -- schedule-control hooks (explorer only; see header comment) --------

  /// Snapshot of every pending event, sorted by (when, id) — the same
  /// canonical order Run() would fire them in. O(n log n); the explorer
  /// calls it once per exploration step on tiny queues. Lookups by id
  /// (here, Cancel, FireEvent, DuplicateEvent) scan the event slab.
  std::vector<PendingEventInfo> PendingEvents() const;

  /// Execute the pending event `id` now, even if it is not the earliest:
  /// time advances to max(now, its scheduled time), so events skipped
  /// over simply fire late (the jitter interpretation of reordering).
  /// Returns false for unknown/cancelled ids.
  bool FireEvent(EventId id);

  /// Clone a pending event: the copy fires at `when + extra_delay` with a
  /// fresh id (FIFO places it after the original at equal times). Models
  /// wire duplication. Returns 0 for unknown ids.
  EventId DuplicateEvent(EventId id, Duration extra_delay = 0);

  bool empty() const { return live_events_ == 0 && wheel_.empty(); }
  std::uint64_t events_executed() const { return events_executed_; }

  // -- datagram payload buffers ------------------------------------------
  // Writers take a buffer to encode a packet into; the network returns it
  // once the datagram is delivered or dropped. The list holds at most as
  // many buffers as were ever in flight at once, and dies with the
  // simulator.

  /// An empty buffer, with the capacity of a returned one if any.
  std::vector<std::uint8_t> TakeBuffer() {
    if (spare_buffers_.empty()) return {};
    std::vector<std::uint8_t> buffer = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
    return buffer;
  }
  /// Give a payload buffer back for reuse (buffers without storage are
  /// not kept).
  void ReturnBuffer(std::vector<std::uint8_t>&& buffer) {
    if (buffer.capacity() == 0) return;
    buffer.clear();
    spare_buffers_.push_back(std::move(buffer));
  }

 private:
  /// One slot of the event slab. `id` 0 marks a free slot; an event sets
  /// either `fn` or, with its `datagram`, `on_datagram`.
  struct Event {
    TimePoint when = 0;
    EventId id = 0;  // monotonic; provides FIFO tie-breaking at equal times
    EventKind kind = EventKind::kGeneric;
    std::uint32_t scope = 0;
    Callback fn;
    DatagramCallback on_datagram;
    Datagram datagram;
  };
  /// A heap entry is stale once its slot's id no longer matches (the
  /// event fired or was cancelled, and the slot may have been reused).
  struct HeapEntry {
    TimePoint when;
    EventId id;
    std::uint32_t slot;
  };
  struct HeapCompare {
    // std::priority_queue is a max-heap; invert for earliest-first and
    // lowest-id-first among equal timestamps.
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Fire one wheel timer: disarm first (so the callback may re-arm),
  /// advance time, invoke.
  void FireWheelEntry(TimerEntry& entry, bool pop_earliest);

  /// Claim a slot for a new event and push its heap entry.
  Event& NewEvent(TimePoint when, EventKind kind, std::uint32_t scope);
  /// Release a slot: its callbacks are destroyed and its datagram's
  /// buffer is returned.
  void FreeSlot(std::uint32_t slot);
  /// The slot of pending heap event `id`, or kNoSlot.
  std::uint32_t FindSlot(EventId id) const;
  /// Free the slot and invoke its event (time already advanced).
  void FireSlot(std::uint32_t slot);

  TimePoint now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCompare> queue_;
  // Firing or cancelling frees the slot; stale heap entries are skipped
  // on pop. The heap never holds more stale entries than were cancelled.
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_events_ = 0;
  std::vector<std::vector<std::uint8_t>> spare_buffers_;
  // Protocol timers (EventKind::kTimer via sim::Timer) live here, not in
  // the heap; RunOne merges the two sources by exact (when, id).
  TimerWheel wheel_;
};

}  // namespace mpq::sim
