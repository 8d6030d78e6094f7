#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace mpq::sim {

Simulator::Event& Simulator::NewEvent(TimePoint when, EventKind kind,
                                      std::uint32_t scope) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Event& event = slots_[slot];
  event.id = next_id_++;
  event.kind = kind;
  event.scope = scope;
  heap_.push_back(HeapEntry{when, event.id, slot});
  Resift(heap_.size() - 1);
  return event;
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Event& event = slots_[slot];
  const std::size_t pos = event.heap_pos;
  event.id = 0;
  event.fn = nullptr;
  event.on_datagram = nullptr;
  ReturnBuffer(std::move(event.datagram.payload));
  free_slots_.push_back(slot);
  // Fill the hole with the last entry and restore the order around it.
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Place(pos, last);
    Resift(pos);
  }
}

void Simulator::Resift(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!Earlier(entry, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  const std::size_t size = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    if (child + 1 < size && Earlier(heap_[child + 1], heap_[child])) ++child;
    if (!Earlier(heap_[child], entry)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, entry);
}

std::uint32_t Simulator::FindSlot(EventId id) const {
  if (id == 0) return kNoSlot;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id == id) return static_cast<std::uint32_t>(i);
  }
  return kNoSlot;
}

Simulator::EventId Simulator::ScheduleAt(TimePoint when, Callback fn,
                                         EventKind kind, std::uint32_t scope) {
  return ScheduleRefAt(when, std::move(fn), kind, scope).id;
}

Simulator::EventId Simulator::ScheduleDatagramAt(TimePoint when,
                                                 Datagram datagram,
                                                 DatagramCallback fn,
                                                 EventKind kind,
                                                 std::uint32_t scope) {
  Event& event = NewEvent(when, kind, scope);
  event.datagram = std::move(datagram);
  event.on_datagram = std::move(fn);
  return event.id;
}

Simulator::EventRef Simulator::ScheduleRefAt(TimePoint when, Callback fn,
                                             EventKind kind,
                                             std::uint32_t scope) {
  Event& event = NewEvent(when, kind, scope);
  event.fn = std::move(fn);
  return {event.id, static_cast<std::uint32_t>(&event - slots_.data())};
}

Simulator::EventRef Simulator::Reschedule(EventRef ref, TimePoint when) {
  if (when < now_) when = now_;
  Event& event = slots_[ref.slot];
  event.id = next_id_++;
  heap_[event.heap_pos] = HeapEntry{when, event.id, ref.slot};
  Resift(event.heap_pos);
  return {event.id, ref.slot};
}

std::vector<Simulator::PendingEventInfo> Simulator::PendingEvents() const {
  std::vector<PendingEventInfo> out;
  out.reserve(heap_.size());
  for (const HeapEntry& entry : heap_) {
    const Event& event = slots_[entry.slot];
    out.push_back({entry.id, entry.when, event.kind, event.scope});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEventInfo& a, const PendingEventInfo& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.id < b.id;
            });
  return out;
}

void Simulator::FireSlot(std::uint32_t slot) {
  // Move the callback (and datagram) out before freeing the slot so the
  // callback may freely schedule/cancel, including into this very slot.
  Event& event = slots_[slot];
  Callback fn = std::move(event.fn);
  DatagramCallback on_datagram = std::move(event.on_datagram);
  Datagram datagram = std::move(event.datagram);
  FreeSlot(slot);
  ++events_executed_;
  if (on_datagram) {
    on_datagram(std::move(datagram));
  } else {
    fn();
  }
}

bool Simulator::FireEvent(EventId id) {
  const std::uint32_t slot = FindSlot(id);
  if (slot == kNoSlot) return false;
  const TimePoint when = heap_[slots_[slot].heap_pos].when;
  if (when > now_) now_ = when;
  FireSlot(slot);
  return true;
}

Simulator::EventId Simulator::DuplicateEvent(EventId id, Duration extra_delay) {
  const std::uint32_t slot = FindSlot(id);
  if (slot == kNoSlot) return 0;
  // Copy the callbacks (std::function targets are CopyConstructible by
  // construction) and the carried datagram — a duplicated delivery holds
  // its own bytes — before NewEvent may grow the slab.
  const Event& original = slots_[slot];
  const TimePoint when = heap_[original.heap_pos].when +
                         (extra_delay < 0 ? 0 : extra_delay);
  Callback fn = original.fn;
  DatagramCallback on_datagram = original.on_datagram;
  Datagram datagram = original.datagram;
  Event& copy = NewEvent(when, original.kind, original.scope);
  copy.fn = std::move(fn);
  copy.on_datagram = std::move(on_datagram);
  copy.datagram = std::move(datagram);
  return copy.id;
}

void Simulator::Cancel(EventId id) {
  const std::uint32_t slot = FindSlot(id);
  if (slot != kNoSlot) FreeSlot(slot);
}

bool Simulator::RunOne(TimePoint until) {
  if (heap_.empty() || heap_.front().when > until) return false;
  now_ = heap_.front().when;
  FireSlot(heap_.front().slot);
  return true;
}

std::uint64_t Simulator::Run(TimePoint until) {
  std::uint64_t executed = 0;
  while (RunOne(until)) ++executed;
  return executed;
}

}  // namespace mpq::sim
