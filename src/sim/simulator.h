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
// inline buffer is scheduled and fired without allocating. The firing
// order comes from one binary min-heap over (when, id) whose entries
// each slot indexes, so firing, cancelling or re-timing an event updates
// its entry in place and the heap holds exactly the pending events.
// Protocol timers (sim::Timer) are ordinary kTimer events on it. The
// simulator also keeps the world's free list of datagram payload
// buffers (TakeBuffer / ReturnBuffer; docs/INTERNALS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/datagram.h"

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

  /// A pending event together with its slab slot, for owners that
  /// re-time or cancel it in O(1) (sim::Timer). Ids are never reused, so
  /// a ref whose slot no longer holds its id is simply not pending.
  struct EventRef {
    EventId id = 0;
    std::uint32_t slot = 0;
  };

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

  /// ScheduleAt, returning the event's slot along with its id.
  EventRef ScheduleRefAt(TimePoint when, Callback fn,
                         EventKind kind = EventKind::kGeneric,
                         std::uint32_t scope = 0);

  /// Move the pending event `ref` to `when` (clamped to now), keeping its
  /// slot and callback. It takes a fresh id — one id per (re-)schedule,
  /// as cancelling and scheduling anew would — so it fires after every
  /// event already due at `when`. Returns the new ref; `ref` must be
  /// pending.
  EventRef Reschedule(EventRef ref, TimePoint when);

  bool IsPending(EventRef ref) const {
    return ref.id != 0 && ref.slot < slots_.size() &&
           slots_[ref.slot].id == ref.id;
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is
  /// a harmless no-op (protocol timers race with the events that clear
  /// them; this mirrors how timer APIs behave in real stacks).
  void Cancel(EventId id);
  /// The same in O(1), without searching the slab for the id.
  void Cancel(EventRef ref) {
    if (IsPending(ref)) FreeSlot(ref.slot);
  }

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

  bool empty() const { return heap_.empty(); }
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
  /// either `fn` or, with its `datagram`, `on_datagram`. A pending event's
  /// time is kept in its heap entry, heap_[heap_pos].
  struct Event {
    EventId id = 0;  // monotonic; provides FIFO tie-breaking at equal times
    std::uint32_t scope = 0;
    std::uint32_t heap_pos = 0;
    EventKind kind = EventKind::kGeneric;
    Callback fn;
    DatagramCallback on_datagram;
    Datagram datagram;
  };
  /// The heap orders entries by (when, id); `slot` leads back to the
  /// event, whose heap_pos leads here.
  struct HeapEntry {
    TimePoint when;
    EventId id;
    std::uint32_t slot;
  };
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;
  }

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Claim a slot for a new event and push its heap entry.
  Event& NewEvent(TimePoint when, EventKind kind, std::uint32_t scope);
  /// Release a pending event's slot and heap entry: its callbacks are
  /// destroyed and its datagram's buffer is returned.
  void FreeSlot(std::uint32_t slot);
  /// The slot of pending event `id`, or kNoSlot.
  std::uint32_t FindSlot(EventId id) const;
  /// Free the slot and invoke its event (time already advanced).
  void FireSlot(std::uint32_t slot);

  /// Store `entry` at heap_[pos] and record the position in its slot.
  void Place(std::size_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Move the entry at `pos` up or down until the heap order holds again
  /// (after its key changed, or another entry was moved into `pos`).
  void Resift(std::size_t pos);

  TimePoint now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::vector<HeapEntry> heap_;  // one entry per pending event
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<std::uint8_t>> spare_buffers_;
};

}  // namespace mpq::sim
