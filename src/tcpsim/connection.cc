#include "tcpsim/connection.h"

#include <algorithm>
#include <cassert>

#include "cc/cubic.h"
#include "cc/newreno.h"
#include "common/log.h"

namespace mpq::tcp {

namespace {
constexpr Duration kPersistInterval = 500 * kMillisecond;
constexpr std::uint32_t kTlsPatternId = 0x715;
}  // namespace

TcpConnection::TcpConnection(sim::Simulator& sim, TcpPerspective perspective,
                             std::uint64_t cid, TcpConfig config,
                             SendFunction send)
    : sim_(sim),
      perspective_(perspective),
      cid_(cid),
      config_(config),
      send_(std::move(send)),
      persist_timer_(sim, [this] {
        // Zero-window probe: one byte of new data past the edge forces an
        // ack carrying the peer's current window.
        if (next_new_dsn_ < stream_len_ &&
            next_new_dsn_ >= peer_window_right_edge_) {
          for (auto& subflow : subflows_) {
            if (subflow->Usable()) {
              const bool fin = StreamFinKnown() &&
                               next_new_dsn_ + 1 == stream_len_;
              subflow->SendMappedData(next_new_dsn_, ByteCount{1}, fin);
              ++next_new_dsn_;
              break;
            }
          }
          persist_timer_.SetIn(kPersistInterval);
        }
      }) {
  if (config_.congestion == cc::Algorithm::kOlia) {
    olia_ = std::make_unique<cc::OliaCoordinator>(config_.mss);
  } else if (config_.congestion == cc::Algorithm::kLia) {
    lia_ = std::make_unique<cc::LiaCoordinator>(config_.mss);
  }
  peer_window_right_edge_ = 0;  // learned from the first segment
}

TcpConnection::~TcpConnection() = default;

std::vector<const Subflow*> TcpConnection::subflows() const {
  std::vector<const Subflow*> out;
  out.reserve(subflows_.size());
  for (const auto& subflow : subflows_) out.push_back(subflow.get());
  return out;
}

Subflow* TcpConnection::GetSubflow(std::uint8_t id) {
  for (auto& subflow : subflows_) {
    if (subflow->id() == id) return subflow.get();
  }
  return nullptr;
}

namespace {
std::unique_ptr<cc::CongestionController> MakeTcpController(
    cc::Algorithm algorithm, ByteCount mss, cc::OliaCoordinator* olia,
    cc::LiaCoordinator* lia) {
  switch (algorithm) {
    case cc::Algorithm::kOlia:
      return olia->CreateController();
    case cc::Algorithm::kLia:
      return lia->CreateController();
    case cc::Algorithm::kNewReno:
      return std::make_unique<cc::NewReno>(mss);
    case cc::Algorithm::kCubic:
      break;
  }
  return std::make_unique<cc::Cubic>(mss);
}
}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

void TcpConnection::Connect(std::vector<sim::Address> locals,
                            std::vector<sim::Address> remotes) {
  assert(perspective_ == TcpPerspective::kClient);
  assert(!locals.empty() && locals.size() == remotes.size());
  local_addresses_ = std::move(locals);
  remote_addresses_ = std::move(remotes);
  SubflowConfig sf_config;
  sf_config.mss = config_.mss;
  sf_config.max_sack_blocks = config_.max_sack_blocks;
  sf_config.multipath = config_.multipath;
  sf_config.lost_retransmission_needs_rto =
      config_.lost_retransmission_needs_rto;
  auto subflow = std::make_unique<Subflow>(
      sim_, *this, 0, cid_, local_addresses_[0], remote_addresses_[0],
      MakeTcpController(config_.congestion, config_.mss, olia_.get(),
                        lia_.get()),
      sf_config);
  subflow->ConnectActive(/*mp_join=*/false);
  subflows_.push_back(std::move(subflow));
}

void TcpConnection::MaybeJoinSubflows() {
  if (perspective_ != TcpPerspective::kClient || !config_.multipath ||
      !tcp_established_ || join_initiated_) {
    return;
  }
  join_initiated_ = true;
  // §3 (contrast): MPTCP needs a full 3-way handshake per additional path
  // before any data can use it — exactly what we model here.
  SubflowConfig sf_config;
  sf_config.mss = config_.mss;
  sf_config.max_sack_blocks = config_.max_sack_blocks;
  sf_config.multipath = config_.multipath;
  sf_config.lost_retransmission_needs_rto =
      config_.lost_retransmission_needs_rto;
  for (std::size_t i = 1; i < local_addresses_.size(); ++i) {
    auto subflow = std::make_unique<Subflow>(
        sim_, *this, static_cast<std::uint8_t>(i), cid_, local_addresses_[i],
        remote_addresses_[i],
        MakeTcpController(config_.congestion, config_.mss, olia_.get(),
                        lia_.get()),
        sf_config);
    subflow->ConnectActive(/*mp_join=*/true);
    subflows_.push_back(std::move(subflow));
  }
}

void TcpConnection::OnSegment(const TcpSegment& segment,
                              const sim::Datagram& datagram) {
  ++stats_.segments_received;
  Subflow* subflow = GetSubflow(segment.subflow);
  if (subflow == nullptr) {
    // Server side: a SYN (initial or MP_JOIN) opens a new subflow.
    if (perspective_ != TcpPerspective::kServer ||
        !segment.has(kFlagSyn)) {
      return;
    }
    if (segment.subflow != 0 && !segment.has(kFlagMpJoin)) return;
    SubflowConfig sf_config;
    sf_config.mss = config_.mss;
    sf_config.max_sack_blocks = config_.max_sack_blocks;
    sf_config.multipath = config_.multipath;
    sf_config.lost_retransmission_needs_rto =
        config_.lost_retransmission_needs_rto;
    auto created = std::make_unique<Subflow>(
        sim_, *this, segment.subflow, cid_, datagram.dst, datagram.src,
        MakeTcpController(config_.congestion, config_.mss, olia_.get(),
                        lia_.get()),
        sf_config);
    created->Listen();
    subflow = created.get();
    subflows_.push_back(std::move(created));
  }
  subflow->OnSegment(segment);
}

// ---------------------------------------------------------------------------
// Send-side stream

void TcpConnection::AppendToStream(std::unique_ptr<SendSource> source) {
  const std::uint64_t start = stream_len_;
  stream_len_ += source->size().value();
  stream_.push_back({start, std::move(source)});
}

std::uint64_t TcpConnection::stream_end() const { return stream_len_; }

void TcpConnection::ReadStream(std::uint64_t dsn,
                               std::span<std::uint8_t> out) {
  std::size_t filled = 0;
  while (filled < out.size()) {
    // Find the chunk containing dsn+filled (chunks are sorted by start).
    const std::uint64_t pos = dsn + filled;
    const StreamChunk* chunk = nullptr;
    for (auto it = stream_.rbegin(); it != stream_.rend(); ++it) {
      if (it->start <= pos) {
        chunk = &*it;
        break;
      }
    }
    assert(chunk != nullptr && "read past stream end");
    const std::uint64_t rel = pos - chunk->start;
    const std::uint64_t avail = chunk->source->size().value() - rel;
    const std::size_t n =
        std::min<std::uint64_t>(avail, out.size() - filled);
    chunk->source->Read(ByteCount{rel}, out.subspan(filled, n));
    filled += n;
  }
}

void TcpConnection::SendAppData(std::unique_ptr<SendSource> source,
                                bool finish) {
  assert(!fin_requested_ && "stream already finished");
  AppendToStream(std::move(source));
  if (finish) fin_requested_ = true;
  TrySend();
}

// ---------------------------------------------------------------------------
// TLS 1.2 model

ByteCount TcpConnection::tls_rx_expected() const {
  if (!config_.use_tls) return ByteCount{0};
  return perspective_ == TcpPerspective::kClient
             ? kTlsServerHello + kTlsServerFinished
             : kTlsClientHello + kTlsClientFinished;
}

ByteCount TcpConnection::tls_tx_total() const {
  if (!config_.use_tls) return ByteCount{0};
  return perspective_ == TcpPerspective::kClient
             ? kTlsClientHello + kTlsClientFinished
             : kTlsServerHello + kTlsServerFinished;
}

void TcpConnection::AdvanceTls() {
  if (!config_.use_tls) {
    if (tcp_established_ && !secure_established_) {
      secure_established_ = true;
      if (on_secure_) on_secure_();
    }
    return;
  }
  if (perspective_ == TcpPerspective::kClient) {
    if (tls_tx_stage_ == 0 && tcp_established_) {
      AppendToStream(
          std::make_unique<PatternSource>(kTlsPatternId, kTlsClientHello));
      tls_tx_stage_ = 1;
      TrySend();
    }
    if (tls_tx_stage_ == 1 && delivered_dsn_ >= kTlsServerHello) {
      AppendToStream(std::make_unique<PatternSource>(kTlsPatternId,
                                                     kTlsClientFinished));
      tls_tx_stage_ = 2;
      TrySend();
    }
    if (tls_tx_stage_ == 2 && !secure_established_ &&
        delivered_dsn_ >= kTlsServerHello + kTlsServerFinished) {
      secure_established_ = true;
      if (on_secure_) on_secure_();
    }
  } else {
    if (tls_tx_stage_ == 0 && delivered_dsn_ >= kTlsClientHello) {
      AppendToStream(
          std::make_unique<PatternSource>(kTlsPatternId, kTlsServerHello));
      tls_tx_stage_ = 1;
      TrySend();
    }
    if (tls_tx_stage_ == 1 &&
        delivered_dsn_ >= kTlsClientHello + kTlsClientFinished) {
      AppendToStream(std::make_unique<PatternSource>(kTlsPatternId,
                                                     kTlsServerFinished));
      tls_tx_stage_ = 2;
      if (!secure_established_) {
        secure_established_ = true;
        if (on_secure_) on_secure_();
      }
      TrySend();
    }
  }
}

// ---------------------------------------------------------------------------
// SubflowHost

void TcpConnection::OnSubflowEstablished(Subflow& subflow) {
  if (subflow.id() == 0) {
    tcp_established_ = true;
    AdvanceTls();
    MaybeJoinSubflows();
  }
  TrySend();
}

void TcpConnection::OnPeerWindow(std::uint64_t data_ack,
                                 std::uint64_t window) {
  if (data_ack > peer_data_ack_) peer_data_ack_ = data_ack;
  // The right edge never retreats (RFC 7323 spirit).
  const std::uint64_t edge = data_ack + window;
  if (edge > peer_window_right_edge_) peer_window_right_edge_ = edge;
}

void TcpConnection::OnSubflowCanSend() { TrySend(); }

void TcpConnection::OnSubflowTimeout(Subflow& subflow,
                                     std::vector<DsnRange> outstanding) {
  if (config_.multipath) {
    // MPTCP reinjects the stranded DSN ranges on the other subflows
    // (§4.3: this is what makes the handover work at all).
    bool other_usable = false;
    for (const auto& other : subflows_) {
      if (other.get() != &subflow && other->Usable()) other_usable = true;
    }
    if (other_usable && !outstanding.empty()) {
      for (const DsnRange& range : outstanding) {
        const bool already =
            std::any_of(reinject_queue_.begin(), reinject_queue_.end(),
                        [&](const DsnRange& r) {
                          return r.start == range.start;
                        });
        if (!already) reinject_queue_.push_back(range);
      }
      ++stats_.failover_reinjections;
    }
  }
  TrySend();
}

void TcpConnection::EmitSegment(Subflow& subflow, TcpSegment&& segment) {
  ++stats_.segments_sent;
  // Encoded into a buffer from the simulator's free list; the network
  // returns it there once the datagram is delivered or dropped.
  BufWriter writer(sim_.TakeBuffer(), SegmentWireSize(segment));
  EncodeSegment(segment, writer);
  send_(subflow.local_address(), subflow.remote_address(), writer.Take());
}

// ---------------------------------------------------------------------------
// Receive side

void TcpConnection::OnSubflowDataDelivered(Subflow&, std::uint64_t dsn,
                                           std::span<const std::uint8_t> data,
                                           bool data_fin) {
  if (data_fin) {
    data_fin_known_ = true;
    data_fin_dsn_ = dsn + data.size();
  }
  const std::uint64_t end = dsn + data.size();
  if (end > delivered_dsn_ && !data.empty()) {
    const std::uint64_t start = std::max<std::uint64_t>(dsn, delivered_dsn_);
    const std::size_t skip = start - dsn;
    reassembly_.emplace(
        start, std::vector<std::uint8_t>(data.begin() + skip, data.end()));
  }
  DrainReassembly();
}

void TcpConnection::DrainReassembly() {
  while (!reassembly_.empty()) {
    auto it = reassembly_.begin();
    if (it->first > delivered_dsn_) break;
    const std::uint64_t end = it->first + it->second.size();
    if (end <= delivered_dsn_) {
      reassembly_.erase(it);
      continue;
    }
    const std::size_t skip = delivered_dsn_ - it->first;
    DeliverDsnData(delivered_dsn_,
                   std::span<const std::uint8_t>(it->second.data() + skip,
                                                 it->second.size() - skip),
                   false);
    delivered_dsn_ = end;
    reassembly_.erase(it);
  }
  AdvanceTls();
  if (data_fin_known_ && !app_eof_signaled_ &&
      delivered_dsn_ >= data_fin_dsn_) {
    app_eof_signaled_ = true;
    if (on_app_data_) {
      const std::uint64_t base = tls_rx_expected().value();
      const ByteCount app_len{delivered_dsn_ > base ? delivered_dsn_ - base
                                                    : 0};
      on_app_data_(app_len, {}, true);
    }
  }
}

void TcpConnection::DeliverDsnData(std::uint64_t dsn,
                                   std::span<const std::uint8_t> data,
                                   bool) {
  const std::uint64_t base = tls_rx_expected().value();
  if (dsn + data.size() <= base) return;  // pure TLS bytes
  const std::size_t skip = dsn < base ? base - dsn : 0;
  const std::span<const std::uint8_t> app = data.subspan(skip);
  stats_.app_bytes_received += app.size();
  if (on_app_data_ && !app.empty()) {
    on_app_data_(ByteCount{dsn + skip - base}, app, false);
  }
}

// ---------------------------------------------------------------------------
// Scheduler + ORP

Subflow* TcpConnection::PickSubflow(ByteCount bytes) {
  Subflow* best = nullptr;
  for (auto& subflow : subflows_) {
    if (!subflow->Usable() || !subflow->CanSendData(bytes)) continue;
    if (best == nullptr ||
        (subflow->rtt().has_sample() &&
         (!best->rtt().has_sample() ||
          subflow->rtt().smoothed() < best->rtt().smoothed()))) {
      best = subflow.get();
    }
  }
  if (best != nullptr) return best;
  // Last resort: a potentially-failed subflow with window room (avoids
  // deadlock when every path looks dead).
  for (auto& subflow : subflows_) {
    if (subflow->established() && subflow->CanSendData(bytes)) {
      return subflow.get();
    }
  }
  return nullptr;
}

void TcpConnection::MaybeOpportunisticRetransmit(Subflow& idle) {
  if (!config_.multipath || !config_.enable_orp) return;
  // Receive-window limited: the data blocking the window is the lowest
  // un-DATA_ACKed DSN. Find the subflow holding it and reinject that
  // range on the idle subflow, penalizing the holder (ORP, §4.1).
  const std::uint64_t blocker = peer_data_ack_;
  if (blocker >= next_new_dsn_) return;
  for (auto& holder : subflows_) {
    if (holder.get() == &idle || !holder->HoldsDsn(blocker)) continue;
    const ByteCount len{std::min<std::uint64_t>(
        config_.mss.value(), next_new_dsn_ - blocker)};
    const bool already =
        std::any_of(reinject_queue_.begin(), reinject_queue_.end(),
                    [&](const DsnRange& r) { return r.start == blocker; });
    if (!already) {
      reinject_queue_.insert(reinject_queue_.begin(),
                             {blocker, len.value()});
      ++stats_.orp_reinjections;
      holder->Penalize();
    }
    return;
  }
}

void TcpConnection::ArmPersistTimerIfBlocked() {
  if (next_new_dsn_ < stream_len_ &&
      next_new_dsn_ >= peer_window_right_edge_) {
    bool anything_in_flight = false;
    for (const auto& subflow : subflows_) {
      if (subflow->HasUnacked()) anything_in_flight = true;
    }
    if (!anything_in_flight && !persist_timer_.armed()) {
      persist_timer_.SetIn(kPersistInterval);
    }
  }
}

void TcpConnection::TrySend() {
  if (in_try_send_) return;
  in_try_send_ = true;

  for (auto& subflow : subflows_) subflow->TrySendRetransmits();

  for (int guard = 0; guard < 100000; ++guard) {
    const bool have_reinject = !reinject_queue_.empty();
    const bool have_new = next_new_dsn_ < stream_len_;
    if (!have_reinject && !have_new) break;

    Subflow* subflow = PickSubflow(config_.mss);
    if (subflow == nullptr) break;

    if (have_reinject) {
      DsnRange& range = reinject_queue_.front();
      const ByteCount len{
          std::min<std::uint64_t>(range.length, config_.mss.value())};
      const bool fin =
          StreamFinKnown() && range.start + len == stream_len_;
      subflow->SendMappedData(range.start, len, fin);
      range.start += len.value();
      range.length -= len.value();
      if (range.length == 0) {
        reinject_queue_.erase(reinject_queue_.begin());
      }
      continue;
    }

    if (next_new_dsn_ >= PeerWindowRightEdge()) {
      MaybeOpportunisticRetransmit(*subflow);
      if (!reinject_queue_.empty()) continue;  // ORP produced work
      ArmPersistTimerIfBlocked();
      break;
    }
    const ByteCount len{std::min<std::uint64_t>(
        {config_.mss.value(), stream_len_ - next_new_dsn_,
         PeerWindowRightEdge() - next_new_dsn_})};
    const bool fin = StreamFinKnown() && next_new_dsn_ + len == stream_len_;
    subflow->SendMappedData(next_new_dsn_, len, fin);
    next_new_dsn_ += len.value();
  }
  in_try_send_ = false;
}

}  // namespace mpq::tcp
