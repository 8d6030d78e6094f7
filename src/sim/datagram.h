// Addresses and datagrams: what the simulated network carries. Kept apart
// from sim/net.h so the Simulator can hold an in-flight datagram in its
// event slot (see Simulator::ScheduleDatagramAt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpq::sim {

/// (node, interface) pair. One interface has exactly one outgoing link in
/// the topologies used here (disjoint paths), so an Address fully
/// determines the route.
struct Address {
  std::uint16_t node = 0;
  std::uint16_t iface = 0;

  friend bool operator==(const Address&, const Address&) = default;
};

struct AddressHash {
  std::size_t operator()(const Address& a) const {
    return (std::size_t{a.node} << 16) | a.iface;
  }
};

struct Datagram {
  Address src;
  Address dst;
  std::vector<std::uint8_t> payload;
};

}  // namespace mpq::sim
