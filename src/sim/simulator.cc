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
  event.when = when;
  event.id = next_id_++;
  event.kind = kind;
  event.scope = scope;
  queue_.push(HeapEntry{when, event.id, slot});
  ++live_events_;
  return event;
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Event& event = slots_[slot];
  event.id = 0;
  event.fn = nullptr;
  event.on_datagram = nullptr;
  ReturnBuffer(std::move(event.datagram.payload));
  free_slots_.push_back(slot);
  --live_events_;
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
  Event& event = NewEvent(when, kind, scope);
  event.fn = std::move(fn);
  return event.id;
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

Simulator::EventId Simulator::ArmTimer(TimerEntry& entry, TimePoint when) {
  if (when < now_) when = now_;
  const EventId id = next_id_++;
  wheel_.Arm(entry, when, id);
  return id;
}

void Simulator::CancelTimer(TimerEntry& entry) { wheel_.Cancel(entry); }

std::vector<Simulator::PendingEventInfo> Simulator::PendingEvents() const {
  std::vector<PendingEventInfo> out;
  out.reserve(live_events_ + wheel_.size());
  for (const Event& event : slots_) {
    if (event.id == 0) continue;
    out.push_back({event.id, event.when, event.kind, event.scope});
  }
  // Wheel timers are pending events like any other; they carry scope 0
  // (timers are dependent with everything), exactly as the heap-based
  // timers did.
  wheel_.ForEach([&out](const TimerEntry& entry) {
    out.push_back({entry.id(), entry.when(), EventKind::kTimer, 0});
  });
  std::sort(out.begin(), out.end(),
            [](const PendingEventInfo& a, const PendingEventInfo& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.id < b.id;
            });
  return out;
}

void Simulator::FireWheelEntry(TimerEntry& entry, bool pop_earliest) {
  std::function<void()>* fn = entry.callback;
  const TimePoint when = entry.when();
  if (pop_earliest) {
    wheel_.PopEarliest(entry);
    now_ = when;
  } else {
    // Explorer path (FireEvent out of order): fire late without moving
    // the wheel's horizon — later entries keep their placement.
    wheel_.Cancel(entry);
    if (when > now_) now_ = when;
  }
  ++events_executed_;
  (*fn)();
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
  if (slot == kNoSlot) {
    TimerEntry* entry = wheel_.FindById(id);
    if (entry == nullptr) return false;
    FireWheelEntry(*entry, /*pop_earliest=*/false);
    return true;
  }
  if (slots_[slot].when > now_) now_ = slots_[slot].when;
  FireSlot(slot);
  return true;
}

Simulator::EventId Simulator::DuplicateEvent(EventId id, Duration extra_delay) {
  const std::uint32_t slot = FindSlot(id);
  if (slot == kNoSlot) {
    TimerEntry* entry = wheel_.FindById(id);
    if (entry == nullptr) return 0;
    // Clone the timer as a plain heap event invoking a copy of the
    // owner's callback (the original entry stays armed; the clone does
    // not reset the owning Timer's state when it fires).
    Callback copy = *entry->callback;
    const TimePoint when =
        entry->when() + (extra_delay < 0 ? 0 : extra_delay);
    return ScheduleAt(when, std::move(copy), EventKind::kTimer, 0);
  }
  // Copy the callbacks (std::function targets are CopyConstructible by
  // construction) and the carried datagram — a duplicated delivery holds
  // its own bytes — before NewEvent may grow the slab.
  const Event& original = slots_[slot];
  const TimePoint when =
      original.when + (extra_delay < 0 ? 0 : extra_delay);
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
  if (slot != kNoSlot) {
    FreeSlot(slot);
    return;
  }
  TimerEntry* entry = wheel_.FindById(id);
  if (entry != nullptr) wheel_.Cancel(*entry);
}

bool Simulator::RunOne(TimePoint until) {
  // Discard stale heap entries so the top (if any) is a live event.
  while (!queue_.empty() && slots_[queue_.top().slot].id != queue_.top().id) {
    queue_.pop();
  }
  TimerEntry* timer = wheel_.PeekEarliest();
  bool fire_timer;
  if (timer != nullptr && !queue_.empty()) {
    const HeapEntry top = queue_.top();
    fire_timer = timer->when() != top.when ? timer->when() < top.when
                                           : timer->id() < top.id;
  } else if (timer != nullptr) {
    fire_timer = true;
  } else if (!queue_.empty()) {
    fire_timer = false;
  } else {
    return false;
  }

  if (fire_timer) {
    if (timer->when() > until) return false;
    FireWheelEntry(*timer, /*pop_earliest=*/true);
    return true;
  }

  const HeapEntry top = queue_.top();
  if (top.when > until) return false;
  queue_.pop();
  now_ = top.when;
  FireSlot(top.slot);
  return true;
}

std::uint64_t Simulator::Run(TimePoint until) {
  std::uint64_t executed = 0;
  while (RunOne(until)) ++executed;
  return executed;
}

}  // namespace mpq::sim
