#include "quic/server.h"

#include <utility>

namespace mpq::quic {

std::uint32_t ShardOf(ConnectionId cid, std::uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  // SplitMix64 finalizer: full-avalanche mix so consecutive CIDs spread
  // evenly over shards.
  std::uint64_t x = cid;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shard_count);
}

Server::Server(sim::Simulator& sim, sim::Network& net,
               std::vector<sim::Address> locals,
               const ConnectionConfig& config, std::uint64_t seed,
               std::uint32_t shard_index, std::uint32_t shard_count)
    : sim_(sim),
      net_(net),
      locals_(std::move(locals)),
      config_(config),
      rng_(seed),
      shard_index_(shard_index),
      shard_count_(shard_count < 1 ? 1 : shard_count) {
  for (const auto& addr : locals_) {
    sim::DatagramSocket* socket = net_.CreateSocket(addr);
    sockets_.emplace_back(addr, socket);
    socket->SetReceiveHandler(
        [this](const sim::Datagram& datagram) { OnDatagram(datagram); });
  }
}

Server::~Server() {
  for (const auto& [addr, socket] : sockets_) net_.CloseSocket(addr);
}

Connection* Server::FindConnection(ConnectionId cid) {
  auto it = connections_.find(cid);
  return it == connections_.end() ? nullptr : it->second.get();
}

std::vector<Connection*> Server::Connections() {
  std::vector<Connection*> out;
  out.reserve(connections_.size());
  for (const auto& [cid, conn] : connections_) out.push_back(conn.get());
  return out;
}

void Server::ForEachConnection(const std::function<void(Connection&)>& fn) {
  for (const auto& [cid, conn] : connections_) fn(*conn);
}

std::size_t Server::ReapClosed() {
  std::size_t reaped = 0;
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->closed()) {
      it = connections_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  stats_.reaped += reaped;
  return reaped;
}

Connection* Server::Demux(const sim::Datagram& datagram) {
  // Peek the CID (flags byte + 8-byte CID) to demultiplex.
  BufReader reader(datagram.payload);
  std::uint8_t flags = 0;
  ConnectionId cid = 0;
  if (!reader.ReadU8(flags) || !reader.ReadU64(cid)) return nullptr;

  // Shard affinity: this engine instance owns exactly the CIDs that
  // hash to its shard. Anything else indicates a mis-partitioned
  // topology; count it and drop (processing it would silently give two
  // shards views of the same connection).
  if (ShardOf(cid, shard_count_) != shard_index_) {
    ++stats_.datagrams_wrong_shard;
    return nullptr;
  }

  auto it = connections_.find(cid);
  if (it == connections_.end()) {
    // Only a handshake packet may open a connection.
    if ((flags & kFlagHandshake) == 0) {
      ++stats_.datagrams_unknown_cid;
      return nullptr;
    }
    auto send = [this](sim::Address local, sim::Address remote,
                       std::vector<std::uint8_t> payload) {
      for (const auto& [addr, socket] : sockets_) {
        if (addr == local) {
          socket->Send(remote, std::move(payload));
          return;
        }
      }
    };
    auto connection = std::make_unique<Connection>(
        sim_, Perspective::kServer, cid, config_, rng_.Fork(),
        std::move(send));
    connection->SetLocalAddresses(locals_);
    ++stats_.accepted;
    if (on_accept_) on_accept_(*connection);
    it = connections_.emplace(cid, std::move(connection)).first;
  }
  ++stats_.datagrams_demuxed;
  return it->second.get();
}

void Server::OnDatagram(const sim::Datagram& datagram) {
  Connection* connection = Demux(datagram);
  if (connection != nullptr) connection->OnDatagram(datagram);
}

}  // namespace mpq::quic
