// Many-connection server engine: owns N concurrent Connections keyed by
// Connection ID, demultiplexing datagrams from any number of clients
// over any of the server's addresses.
//
// Sharding (docs/ARCHITECTURE.md): a deterministic hash of the CID
// assigns every connection to exactly one shard. One Server instance
// *is* one shard — it owns its connections outright, runs inside its
// shard's Simulator/Network, and drops (and counts) any datagram whose
// CID hashes elsewhere, so cross-shard state sharing is impossible by
// construction (the `mpq-shard-affinity` lint rule enforces the same
// boundary statically). The workload layer (src/harness/workload.h)
// builds one Server per shard and fans shards across the
// harness/parallel worker pool; because ShardOf depends only on the CID
// and the shard count, the partition — and therefore every KPI — is
// byte-identical for any `--jobs N`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "quic/connection.h"
#include "sim/net.h"
#include "sim/simulator.h"

namespace mpq::quic {

/// Deterministic CID -> shard map: a SplitMix64 finalizer (not
/// std::hash, whose result is implementation-defined) folded modulo the
/// shard count. Stable across runs, platforms and job counts.
std::uint32_t ShardOf(ConnectionId cid, std::uint32_t shard_count);

struct ServerStats {
  std::uint64_t accepted = 0;
  /// Closed connections destroyed by ReapClosed().
  std::uint64_t reaped = 0;
  std::uint64_t datagrams_demuxed = 0;
  /// Non-handshake datagrams for an unknown CID (stray/late packets).
  std::uint64_t datagrams_unknown_cid = 0;
  /// Datagrams whose CID hashes to a different shard (must be zero in a
  /// correctly-partitioned topology; counted, never processed).
  std::uint64_t datagrams_wrong_shard = 0;
};

/// One shard of the many-connection server. With the default
/// shard_index 0 / shard_count 1 it is a plain single-instance server —
/// the `ServerEndpoint` every existing test and bench uses.
class Server {
 public:
  /// Called once per accepted connection, before its first packet is
  /// processed — the application installs its stream handlers here.
  using AcceptHandler = std::function<void(Connection&)>;

  Server(sim::Simulator& sim, sim::Network& net,
         std::vector<sim::Address> locals, const ConnectionConfig& config,
         std::uint64_t seed, std::uint32_t shard_index = 0,
         std::uint32_t shard_count = 1);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void SetAcceptHandler(AcceptHandler handler) {
    on_accept_ = std::move(handler);
  }

  std::size_t connection_count() const { return connections_.size(); }
  Connection* FindConnection(ConnectionId cid);
  /// All owned connections, ordered by CID (deterministic — the model
  /// checker digests every server connection each step).
  std::vector<Connection*> Connections();
  /// Visit owned connections in CID order.
  void ForEachConnection(const std::function<void(Connection&)>& fn);

  /// Destroy every closed connection (frees its timers, streams and
  /// scratch buffers). Deterministic: iterates in CID order. The
  /// workload engine sweeps periodically so a 10k-connection run holds
  /// only the concurrently-active connections in memory.
  std::size_t ReapClosed();

  std::uint32_t shard_index() const { return shard_index_; }
  std::uint32_t shard_count() const { return shard_count_; }
  const ServerStats& stats() const { return stats_; }

 private:
  /// Receive path: Demux, then hand the datagram to its connection
  /// inside the delivery event (one open per datagram).
  void OnDatagram(const sim::Datagram& datagram);
  /// Demultiplex one datagram to its (possibly new) connection. Returns
  /// the target connection, or nullptr when the datagram was dropped
  /// (wrong shard, unknown CID); stats are counted either way.
  Connection* Demux(const sim::Datagram& datagram);

  sim::Simulator& sim_;
  sim::Network& net_;
  std::vector<sim::Address> locals_;
  ConnectionConfig config_;
  Rng rng_;
  std::uint32_t shard_index_;
  std::uint32_t shard_count_;
  AcceptHandler on_accept_;
  ServerStats stats_;
  std::vector<std::pair<sim::Address, sim::DatagramSocket*>> sockets_;
  std::map<ConnectionId, std::unique_ptr<Connection>> connections_;
};

}  // namespace mpq::quic
