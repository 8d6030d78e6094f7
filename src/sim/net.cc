#include "sim/net.h"

#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace mpq::sim {

Link::Link(Simulator& sim, LinkConfig config, Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  if (config_.capacity_mbps <= 0.0) {
    throw std::invalid_argument("link capacity must be positive");
  }
  // A link that cannot hold even two full-size packets cannot carry any
  // sustained traffic; clamp (see LinkConfig doc).
  constexpr ByteCount kMinQueue{2 * 1500};
  if (config_.queue_capacity_bytes < kMinQueue) {
    config_.queue_capacity_bytes = kMinQueue;
  }
}

Duration Link::TransmissionTime(ByteCount wire_bytes) const {
  const double bits = static_cast<double>(wire_bytes) * 8.0;
  const double seconds = bits / (config_.capacity_mbps * 1e6);
  const auto us = static_cast<Duration>(seconds * 1e6 + 0.5);
  return us > 0 ? us : 1;  // nothing transmits in zero time
}

bool Link::WireLoss() {
  if (config_.gilbert_elliott.enabled) {
    const GilbertElliottConfig& ge = config_.gilbert_elliott;
    // Evolve the channel once per packet, then draw by current state.
    const double flip = ge_bad_ ? ge.bad_to_good : ge.good_to_bad;
    if (flip > 0.0 && rng_.NextBool(flip)) ge_bad_ = !ge_bad_;
    const double loss = ge_bad_ ? ge.loss_bad : ge.loss_good;
    return loss > 0.0 && rng_.NextBool(loss);
  }
  return config_.random_loss_rate > 0.0 &&
         rng_.NextBool(config_.random_loss_rate);
}

void Link::ApplyFault(const LinkFault& fault) {
  switch (fault.kind) {
    case LinkFault::Kind::kDown:
      down_ = true;
      break;
    case LinkFault::Kind::kUp:
      down_ = false;
      break;
    case LinkFault::Kind::kLossRate:
      config_.random_loss_rate = fault.loss_rate;
      config_.gilbert_elliott.enabled = false;
      break;
    case LinkFault::Kind::kReconfigure:
      if (fault.capacity_mbps > 0.0) {
        config_.capacity_mbps = fault.capacity_mbps;
      }
      if (fault.propagation_delay > 0) {
        config_.propagation_delay = fault.propagation_delay;
      }
      if (fault.queue_capacity_bytes > ByteCount{0}) {
        constexpr ByteCount kMinQueue{2 * 1500};
        config_.queue_capacity_bytes =
            fault.queue_capacity_bytes < kMinQueue ? kMinQueue
                                                   : fault.queue_capacity_bytes;
      }
      break;
    case LinkFault::Kind::kBurstLoss:
      SetGilbertElliott(fault.gilbert_elliott);
      break;
  }
}

void Link::ScheduleFaults(const std::vector<LinkFault>& faults) {
  for (const LinkFault& fault : faults) {
    sim_.ScheduleAt(fault.time, [this, fault] { ApplyFault(fault); });
  }
}

void Link::Transmit(Datagram dgram) {
  ++stats_.offered;
  if (down_) {
    ++stats_.dropped_link_down;
    Discard(dgram);
    return;
  }
  const ByteCount wire_bytes =
      ByteCount{dgram.payload.size()} + config_.per_packet_overhead;
  if (queued_bytes_ + wire_bytes > config_.queue_capacity_bytes) {
    ++stats_.dropped_queue_full;
    Discard(dgram);
    return;
  }
  queued_bytes_ += wire_bytes;
  if (queued_bytes_ > stats_.max_queue_bytes) {
    stats_.max_queue_bytes = queued_bytes_;
  }
  const TimePoint start =
      busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const TimePoint tx_done = start + TransmissionTime(wire_bytes);
  busy_until_ = tx_done;
  // One event at transmission completion. The datagram travels in the
  // event's slot; the capture stays within std::function's inline buffer.
  sim_.ScheduleDatagramAt(tx_done, std::move(dgram),
                          [this, wire_bytes](Datagram&& d) {
                            OnSerialized(std::move(d), wire_bytes);
                          });
}

void Link::OnSerialized(Datagram&& dgram, ByteCount wire_bytes) {
  queued_bytes_ -= wire_bytes;
  // A link that went down mid-serialization loses the packet too; no
  // RNG draw, so up/down cycles leave other links' loss sequences
  // untouched.
  if (down_) {
    ++stats_.dropped_link_down;
    Discard(dgram);
    return;
  }
  if (WireLoss()) {
    ++stats_.dropped_random;
    Discard(dgram);
    return;
  }
  Duration propagation = config_.propagation_delay;
  if (config_.jitter > 0) {
    propagation += static_cast<Duration>(
        rng_.NextBounded(static_cast<std::uint64_t>(config_.jitter) + 1));
  }
  // The delivery event is tagged so the explorer can treat it as an
  // adversarial target (drop/duplicate) and group it by destination.
  sim_.ScheduleDatagramAt(
      sim_.now() + propagation, std::move(dgram),
      [this, wire_bytes](Datagram&& d) { OnArrived(std::move(d), wire_bytes); },
      EventKind::kDelivery, delivery_scope_);
}

void Link::OnArrived(Datagram&& dgram, ByteCount wire_bytes) {
  ++stats_.delivered;
  stats_.wire_bytes_delivered += wire_bytes;
  if (deliver_) {
    deliver_(std::move(dgram));
  } else {
    Discard(dgram);
  }
}

void DatagramSocket::Send(Address dst, std::vector<std::uint8_t> payload) {
  net_.Send(Datagram{local_, dst, std::move(payload)});
}

Link* Network::AddLink(Address from, Address to, const LinkConfig& config) {
  auto link = std::make_unique<Link>(sim_, config, rng_.Fork());
  Link* raw = link.get();
  raw->SetDeliveryHandler([this](Datagram&& d) { Deliver(std::move(d)); });
  raw->SetDeliveryScope(1u + to.node);
  auto [it, inserted] =
      links_by_src_.emplace(from, LinkEnds{std::move(link), to});
  if (!inserted) {
    throw std::invalid_argument("interface already has an outgoing link");
  }
  return it->second.link.get();
}

Link* Network::AddSharedLink(Address from, const LinkConfig& config) {
  auto link = std::make_unique<Link>(sim_, config, rng_.Fork());
  Link* raw = link.get();
  raw->SetDeliveryHandler([this](Datagram&& d) { Deliver(std::move(d)); });
  // Deliveries fan out to many destinations; scope 0 keeps the explorer
  // conservative ("dependent with everything") should it ever meet one.
  raw->SetDeliveryScope(0);
  auto [it, inserted] = links_by_src_.emplace(
      from, LinkEnds{std::move(link), Address{}, /*any_dst=*/true});
  if (!inserted) {
    throw std::invalid_argument("interface already has an outgoing link");
  }
  return it->second.link.get();
}

std::pair<Link*, Link*> Network::AddDuplexLink(Address a, Address b,
                                               const LinkConfig& a_to_b,
                                               const LinkConfig& b_to_a) {
  Link* fwd = AddLink(a, b, a_to_b);
  Link* rev = AddLink(b, a, b_to_a);
  return {fwd, rev};
}

DatagramSocket* Network::CreateSocket(Address local) {
  auto socket =
      std::unique_ptr<DatagramSocket>(new DatagramSocket(*this, local));
  auto [it, inserted] = sockets_.emplace(local, std::move(socket));
  if (!inserted) {
    throw std::invalid_argument("address already bound");
  }
  return it->second.get();
}

Link* Network::FindLinkFrom(Address from) {
  auto it = links_by_src_.find(from);
  return it == links_by_src_.end() ? nullptr : it->second.link.get();
}

void Network::Send(Datagram dgram) {
  auto it = links_by_src_.find(dgram.src);
  if (it == links_by_src_.end()) {
    MPQ_WARN(sim_.now(), "net", "no route from node %u iface %u",
             dgram.src.node, dgram.src.iface);
    sim_.ReturnBuffer(std::move(dgram.payload));
    return;
  }
  if (!it->second.any_dst && !(it->second.to == dgram.dst)) {
    // Disjoint-path topology: an interface reaches exactly one peer
    // address. A mismatched destination is unroutable.
    MPQ_WARN(sim_.now(), "net", "unroutable dst node %u iface %u",
             dgram.dst.node, dgram.dst.iface);
    sim_.ReturnBuffer(std::move(dgram.payload));
    return;
  }
  it->second.link->Transmit(std::move(dgram));
}

void Network::Deliver(Datagram&& dgram) {
  auto it = sockets_.find(dgram.dst);
  // No listener: silently dropped.
  if (it != sockets_.end() && it->second->receive_) {
    it->second->receive_(dgram);
  }
  sim_.ReturnBuffer(std::move(dgram.payload));
}

}  // namespace mpq::sim
