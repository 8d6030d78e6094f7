// Connection level of the TCP/MPTCP baseline: the byte stream with DSN
// reassembly, the HTTPS-style secure session (TCP 3-way handshake plus a
// modelled TLS 1.2 exchange — 3 RTTs before the request flows, §4.2), the
// MPTCP lowest-RTT scheduler with opportunistic retransmission and
// penalization (ORP), subflow joining, and failure handling.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cc/lia.h"
#include "cc/olia.h"
#include "common/types.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcpsim/subflow.h"

#include "common/source.h"

namespace mpq::tcp {

enum class TcpPerspective { kClient, kServer };

struct TcpConfig {
  bool multipath = false;
  cc::Algorithm congestion = cc::Algorithm::kCubic;
  ByteCount receive_window{16 * 1024 * 1024};  // §4.1: 16 MB
  ByteCount mss{1400};
  int max_sack_blocks = kMaxSackBlocks;  // ablation: QUIC-like when raised
  /// Model the TLS 1.2 exchange (2 extra RTTs) — the paper's comparison
  /// is https vs QUIC-crypto. Disable for raw-TCP experiments.
  bool use_tls = true;
  /// Opportunistic Retransmission and Penalization (ablation knob).
  bool enable_orp = true;
  /// Pre-RACK lost-retransmission blind spot (see SubflowConfig).
  bool lost_retransmission_needs_rto = true;
};

/// Modelled TLS 1.2 message sizes (bytes of the handshake byte-stream).
inline constexpr ByteCount kTlsClientHello{300};
inline constexpr ByteCount kTlsServerHello{3000};  // incl. certificate
inline constexpr ByteCount kTlsClientFinished{100};
inline constexpr ByteCount kTlsServerFinished{100};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t orp_reinjections = 0;
  std::uint64_t failover_reinjections = 0;
  ByteCount app_bytes_received{};
};

class TcpConnection : public SubflowHost {
 public:
  using SendFunction = std::function<void(
      sim::Address local, sim::Address remote, std::vector<std::uint8_t>)>;

  TcpConnection(sim::Simulator& sim, TcpPerspective perspective,
                std::uint64_t cid, TcpConfig config, SendFunction send);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // -- client lifecycle ---------------------------------------------------
  /// `locals[i]` pairs with `remotes[i]`; pair 0 carries the initial
  /// subflow, the rest are joined once the connection is established
  /// (addresses beyond pair 0 stand in for MPTCP's ADD_ADDR knowledge).
  void Connect(std::vector<sim::Address> locals,
               std::vector<sim::Address> remotes);

  // -- server lifecycle ---------------------------------------------------
  /// Install the server's local addresses (one per interface).
  void SetLocalAddresses(std::vector<sim::Address> addresses) {
    local_addresses_ = std::move(addresses);
  }

  /// Feed an incoming segment (endpoint demultiplexes by cid).
  void OnSegment(const TcpSegment& segment, const sim::Datagram& datagram);

  // -- application API ----------------------------------------------------
  /// Fires when the secure session is up (TLS Finished exchanged); the
  /// client sends its request from this callback.
  void SetSecureEstablishedHandler(std::function<void()> handler) {
    on_secure_ = std::move(handler);
  }
  /// In-order application bytes (offsets relative to the app stream,
  /// i.e. excluding the TLS handshake bytes). `finished` mirrors DATA_FIN.
  using AppDataHandler = std::function<void(
      ByteCount offset, std::span<const std::uint8_t> data, bool finished)>;
  void SetAppDataHandler(AppDataHandler handler) {
    on_app_data_ = std::move(handler);
  }
  /// Queue application payload. With `finish` (default), DATA_FIN is sent
  /// with its last byte; pass false to keep the stream open for more
  /// writes (request/response workloads).
  void SendAppData(std::unique_ptr<SendSource> source, bool finish = true);

  // -- introspection ------------------------------------------------------
  bool secure_established() const { return secure_established_; }
  std::uint64_t cid() const { return cid_; }
  const TcpStats& stats() const { return stats_; }
  std::vector<const Subflow*> subflows() const;
  Subflow* GetSubflow(std::uint8_t id);

  // -- SubflowHost --------------------------------------------------------
  void OnSubflowEstablished(Subflow& subflow) override;
  void OnSubflowDataDelivered(Subflow& subflow, std::uint64_t dsn,
                              std::span<const std::uint8_t> data,
                              bool data_fin) override;
  void OnPeerWindow(std::uint64_t data_ack, std::uint64_t window) override;
  void OnSubflowCanSend() override;
  void OnSubflowTimeout(Subflow& subflow,
                        std::vector<DsnRange> outstanding) override;
  std::uint64_t AdvertisedWindow() override { return config_.receive_window.value(); }
  std::uint64_t ConnectionDataAck() override { return delivered_dsn_; }
  void EmitSegment(Subflow& subflow, const TcpSegment& segment,
                   std::uint64_t dsn, std::size_t payload_size) override;

 private:
  // -- send-side stream ---------------------------------------------------
  struct StreamChunk {
    std::uint64_t start = 0;
    std::unique_ptr<SendSource> source;
  };
  void AppendToStream(std::unique_ptr<SendSource> source);
  std::uint64_t stream_end() const;
  bool StreamFinKnown() const { return fin_requested_; }
  /// Read connection-stream bytes for (re)transmission.
  void ReadStream(std::uint64_t dsn, std::span<std::uint8_t> out);

  // -- TLS state machine (driven by delivered byte counts) ----------------
  void AdvanceTls();
  ByteCount tls_rx_expected() const;  // handshake bytes we must receive
  ByteCount tls_tx_total() const;     // handshake bytes we will send

  // -- scheduling ---------------------------------------------------------
  void TrySend();
  Subflow* PickSubflow(ByteCount bytes);
  void MaybeOpportunisticRetransmit(Subflow& idle);
  void MaybeJoinSubflows();
  std::uint64_t PeerWindowRightEdge() const {
    return peer_window_right_edge_;
  }
  void ArmPersistTimerIfBlocked();

  // -- receive-side reassembly --------------------------------------------
  void DeliverDsnData(std::uint64_t dsn, std::span<const std::uint8_t> data,
                      bool data_fin);
  void DrainReassembly();

  sim::Simulator& sim_;
  TcpPerspective perspective_;
  std::uint64_t cid_;
  TcpConfig config_;
  SendFunction send_;

  std::vector<sim::Address> local_addresses_;
  std::vector<sim::Address> remote_addresses_;

  std::unique_ptr<cc::OliaCoordinator> olia_;
  std::unique_ptr<cc::LiaCoordinator> lia_;
  std::vector<std::unique_ptr<Subflow>> subflows_;
  bool join_initiated_ = false;

  // Send-side connection stream (TLS messages then app payload).
  std::vector<StreamChunk> stream_;
  std::uint64_t stream_len_ = 0;
  std::uint64_t next_new_dsn_ = 0;
  bool fin_requested_ = false;
  std::vector<DsnRange> reinject_queue_;
  std::uint64_t peer_data_ack_ = 0;
  std::uint64_t peer_window_right_edge_ = 0;
  sim::Timer persist_timer_;

  // Receive side. Only data that arrives ahead of delivered_dsn_ is
  // copied here; in-order bytes go straight to the application.
  std::map<std::uint64_t, std::vector<std::uint8_t>> reassembly_;  // by dsn
  std::uint64_t delivered_dsn_ = 0;
  bool data_fin_known_ = false;
  std::uint64_t data_fin_dsn_ = 0;
  bool app_eof_signaled_ = false;

  // TLS progression.
  bool tcp_established_ = false;
  bool secure_established_ = false;
  int tls_tx_stage_ = 0;  // how many of our handshake messages are queued

  std::function<void()> on_secure_;
  AppDataHandler on_app_data_;
  TcpStats stats_;
  bool in_try_send_ = false;
};

}  // namespace mpq::tcp
