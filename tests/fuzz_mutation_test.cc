// Deterministic mutation fuzzing for the two external input surfaces:
// the wire parser (DecodeFrame/DecodePayload/DecodeHeader) and the
// NDJSON trace reader (ReadTrace). Inputs start from valid encodings,
// then get byte flips, splices, and truncations from a fixed-seed
// common/rng.h generator, so every run covers the same corpus and a
// failure reproduces by seed. The assertion is crash-freedom (and a few
// cheap sanity bounds) under whatever sanitizer the build enables —
// tools/ci.sh runs this binary under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/source.h"
#include "crypto/aead.h"
#include "obs/qlog.h"
#include "obs/trace_reader.h"
#include "quic/connection.h"
#include "quic/wire.h"
#include "sim/simulator.h"

namespace mpq::quic {
namespace {

// Mirror of the generator in wire_property_test.cc: a diverse valid
// frame to seed mutations from. Kept local so the two tests stay
// independently hackable. A STREAM frame views `payload`, which the
// caller keeps alive until the frame is encoded.
Frame RandomFrame(Rng& rng, std::vector<std::uint8_t>& payload) {
  switch (rng.NextBounded(10)) {
    case 0: {
      StreamFrame f;
      f.stream_id = StreamId{static_cast<std::uint32_t>(
          rng.NextBounded(1000) + 1)};
      f.offset = ByteCount{rng.NextBounded(1ULL << 40)};
      f.fin = rng.NextBool(0.2);
      payload.resize(rng.NextBounded(600));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextU64());
      f.length = ByteCount{payload.size()};
      f.data = payload;
      return f;
    }
    case 1: {
      AckFrame f;
      f.path_id = PathId{static_cast<std::uint8_t>(rng.NextBounded(8))};
      f.ack_delay = static_cast<Duration>(rng.NextBounded(1 << 20));
      PacketNumber cursor{rng.NextBounded(1ULL << 30) + 3000};
      const std::size_t count = rng.NextBounded(32) + 1;
      for (std::size_t i = 0; i < count && cursor > 8; ++i) {
        const PacketNumber largest = cursor;
        const PacketNumber smallest =
            largest -
            rng.NextBounded(std::min<std::uint64_t>(largest.value(), 5));
        f.ranges.push_back({smallest, largest});
        if (smallest < rng.NextBounded(6) + 2) break;
        cursor = smallest - (rng.NextBounded(4) + 2);
      }
      return f;
    }
    case 2: {
      WindowUpdateFrame f;
      f.stream_id = StreamId{static_cast<std::uint32_t>(rng.NextBounded(100))};
      f.max_data = ByteCount{rng.NextBounded(1ULL << 40)};
      return f;
    }
    case 3:
      return PingFrame{};
    case 4: {
      PathsFrame f;
      const std::size_t count = rng.NextBounded(6);
      for (std::size_t i = 0; i < count; ++i) {
        f.paths.push_back({PathId{static_cast<std::uint8_t>(i)},
                           rng.NextBool(0.3) ? PathStatus::kPotentiallyFailed
                                             : PathStatus::kActive,
                           static_cast<Duration>(rng.NextBounded(1 << 22))});
      }
      return f;
    }
    case 5: {
      AddAddressFrame f;
      const std::size_t count = rng.NextBounded(4) + 1;
      for (std::size_t i = 0; i < count; ++i) {
        f.addresses.push_back(
            {static_cast<std::uint16_t>(rng.NextBounded(100)),
             static_cast<std::uint16_t>(rng.NextBounded(4))});
      }
      return f;
    }
    case 6: {
      RemoveAddressFrame f;
      f.addresses.push_back({static_cast<std::uint16_t>(rng.NextBounded(100)),
                             static_cast<std::uint16_t>(rng.NextBounded(4))});
      return f;
    }
    case 7: {
      RstStreamFrame f;
      f.stream_id = StreamId{static_cast<std::uint32_t>(
          rng.NextBounded(1000) + 1)};
      f.error_code = static_cast<std::uint16_t>(rng.NextBounded(1 << 16));
      f.final_offset = ByteCount{rng.NextBounded(1ULL << 40)};
      return f;
    }
    case 8: {
      ConnectionCloseFrame f;
      f.error_code = static_cast<std::uint16_t>(rng.NextBounded(1 << 16));
      f.reason.resize(rng.NextBounded(40));
      for (auto& c : f.reason) c = static_cast<char>(rng.NextBounded(256));
      return f;
    }
    default: {
      BlockedFrame f;
      f.stream_id = StreamId{static_cast<std::uint32_t>(rng.NextBounded(100))};
      return f;
    }
  }
}

/// Apply `count` random single-byte edits (flip, overwrite, or splice of
/// a short random run) in place.
void MutateBytes(Rng& rng, std::vector<std::uint8_t>& bytes,
                 std::size_t count) {
  if (bytes.empty()) return;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pos = rng.NextBounded(bytes.size());
    switch (rng.NextBounded(3)) {
      case 0:  // flip one bit
        bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.NextBounded(8));
        break;
      case 1:  // overwrite with a fresh byte
        bytes[pos] = static_cast<std::uint8_t>(rng.NextU64());
        break;
      default: {  // splice a short random run
        const std::size_t run =
            std::min<std::size_t>(rng.NextBounded(8) + 1, bytes.size() - pos);
        for (std::size_t j = 0; j < run; ++j) {
          bytes[pos + j] = static_cast<std::uint8_t>(rng.NextU64());
        }
        break;
      }
    }
  }
}

/// Decoding must never crash, and on success the decoded frame must
/// re-encode (i.e. be internally consistent enough to serialize).
void DecodeMustNotCrash(std::span<const std::uint8_t> bytes) {
  BufReader reader(bytes);
  Frame frame;
  if (DecodeFrame(reader, frame)) {
    BufWriter reencoded;
    EncodeFrame(frame, reencoded);
    ASSERT_EQ(reencoded.size(), FrameWireSize(frame));
  }
  std::vector<Frame> frames;
  if (DecodePayload(bytes, frames)) {
    for (const Frame& f : frames) {
      BufWriter reencoded;
      EncodeFrame(f, reencoded);
      ASSERT_EQ(reencoded.size(), FrameWireSize(f));
    }
  }
}

TEST(FuzzMutation, MutatedFramesNeverCrashDecoder) {
  Rng rng(0xF0552001);
  for (int iter = 0; iter < 4000; ++iter) {
    BufWriter writer;
    std::vector<std::uint8_t> payload;
    const std::size_t count = rng.NextBounded(4) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      EncodeFrame(RandomFrame(rng, payload), writer);
    }
    std::vector<std::uint8_t> bytes(writer.data());
    MutateBytes(rng, bytes, rng.NextBounded(8) + 1);
    DecodeMustNotCrash(bytes);
  }
}

TEST(FuzzMutation, EveryTruncationPrefixIsHandled) {
  Rng rng(0xF0552002);
  for (int iter = 0; iter < 200; ++iter) {
    BufWriter writer;
    std::vector<std::uint8_t> payload;
    EncodeFrame(RandomFrame(rng, payload), writer);
    const std::vector<std::uint8_t>& bytes = writer.data();
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      DecodeMustNotCrash(std::span<const std::uint8_t>(bytes.data(), len));
    }
  }
}

TEST(FuzzMutation, PureNoiseNeverCrashesDecoder) {
  Rng rng(0xF0552003);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> bytes(rng.NextBounded(300));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.NextU64());
    DecodeMustNotCrash(bytes);
  }
}

TEST(FuzzMutation, MutatedHeadersNeverCrashDecoder) {
  Rng rng(0xF0552004);
  for (int iter = 0; iter < 4000; ++iter) {
    PacketHeader header;
    header.cid = rng.NextU64();
    header.multipath = rng.NextBool(0.5);
    header.path_id = PathId{static_cast<std::uint8_t>(rng.NextBounded(8))};
    const PacketNumber largest_acked{rng.NextBounded(1ULL << 34)};
    header.packet_number = largest_acked + 1 + rng.NextBounded(1 << 12);
    header.handshake = rng.NextBool(0.1);
    BufWriter writer;
    EncodeHeader(header, largest_acked, writer);
    std::vector<std::uint8_t> bytes(writer.data());
    MutateBytes(rng, bytes, rng.NextBounded(4) + 1);
    const std::size_t len = rng.NextBool(0.3)
                                ? rng.NextBounded(bytes.size() + 1)
                                : bytes.size();
    BufReader reader(std::span<const std::uint8_t>(bytes.data(), len));
    ParsedHeader parsed;
    if (DecodeHeader(reader, parsed)) {
      // Whatever decoded must at least be self-consistent.
      ASSERT_GE(parsed.header_size, parsed.pn_length);
      ASSERT_LE(parsed.header_size, len);
      (void)DecodePacketNumber(largest_acked, parsed.header.packet_number,
                               parsed.pn_length);
    }
  }
}

// ---------------------------------------------------------------------------
// Connection-level mutation fuzzing: the dispatcher and the path-management
// handlers behind it, reached through the real decrypt path. The simulated
// handshake is observable (both nonces cross in cleartext and the server
// config secret sits in ConnectionConfig), so the harness plays an on-path
// attacker that derives the session keys and abuses them two ways: real
// packets on the transfer-carrying paths are re-sealed in transit with
// mutated PATHS / ADD_ADDRESS / REMOVE_ADDRESS frames appended, and whole
// forged packets land on fresh path ids — aimed at paths in the
// potentially-failed and unknown-RTT states the chaos sweep newly
// reaches. Assertions: crash-freedom (tools/ci.sh runs this binary
// under ASan+UBSan and with MPQ_AUDIT, which re-checks the connection
// invariants on every OnDatagram), and liveness — once the abuse stops and
// both ends re-announce their addresses, the transfers still finish.

constexpr sim::Address kVictimAddrs[] = {{1, 0}, {1, 1}};
constexpr sim::Address kPeerAddrs[] = {{2, 0}, {2, 1}};
constexpr ConnectionId kForgeCid = 0xF0DD;

class OnPathAttacker {
 public:
  explicit OnPathAttacker(std::uint64_t seed) : rng_(seed) {
    config_.multipath = true;
    config_.congestion = CongestionAlgo::kOlia;
    client_ = std::make_unique<Connection>(
        sim_, Perspective::kClient, kForgeCid, config_, Rng(seed ^ 0xC1),
        [this](sim::Address local, sim::Address remote,
               std::vector<std::uint8_t> bytes) {
          Forward(/*to_server=*/true, local, remote, std::move(bytes));
        });
    server_ = std::make_unique<Connection>(
        sim_, Perspective::kServer, kForgeCid, config_, Rng(seed ^ 0x5E),
        [this](sim::Address local, sim::Address remote,
               std::vector<std::uint8_t> bytes) {
          Forward(/*to_server=*/false, local, remote, std::move(bytes));
        });
    client_->SetLocalAddresses({kVictimAddrs[0], kVictimAddrs[1]});
    server_->SetLocalAddresses({kPeerAddrs[0], kPeerAddrs[1]});
    client_->SetStreamDataHandler(
        [this](StreamId, ByteCount, std::span<const std::uint8_t>, bool fin) {
          if (fin) ++transfers_finished_;
        });
    server_->SetStreamDataHandler(
        [this](StreamId, ByteCount, std::span<const std::uint8_t>, bool fin) {
          if (fin) ++transfers_finished_;
        });
  }

  /// Run the handshake, then derive the same session keys both endpoints
  /// ended up with from the sniffed nonces.
  bool EstablishAndDeriveKeys() {
    client_->Connect(kPeerAddrs[0]);
    sim_.Run(2 * kSecond);
    if (!client_->established() || !server_->established()) return false;
    if (client_nonce_.empty() || server_nonce_.empty()) return false;
    const crypto::SessionKeys keys = crypto::DeriveSessionKeys(
        client_nonce_, server_nonce_, config_.server_config_secret);
    to_client_.emplace(keys.server_to_client);
    to_server_.emplace(keys.client_to_server);
    return true;
  }

  /// Start one transfer each way; `tamper` turns on the in-transit
  /// rewriting of real packets (TrackAndMaybeTamper).
  void StartTransfers(bool tamper = true) {
    client_->SendOnStream(StreamId{3}, std::make_unique<PatternSource>(
                                           StreamId{3}, ByteCount{96 * 1024}));
    server_->SendOnStream(StreamId{4}, std::make_unique<PatternSource>(
                                           StreamId{4}, ByteCount{64 * 1024}));
    tampering_ = tamper;
  }

  /// One fuzz step: move the outage windows, inject one forged packet,
  /// advance the clock 20 ms.
  void Step(int iter) {
    // Periodic one-directional cuts, each longer than the minimum RTO, so
    // the victim's paths cycle through potentially-failed while forged
    // frames keep arriving.
    drop_to_client_ = iter % 100 >= 40 && iter % 100 < 60;
    drop_to_server_ = iter % 100 >= 70 && iter % 100 < 80;
    const bool to_client = rng_.NextBool(0.7);
    // Whole forged packets go only to attacker-created path ids, forcing
    // EnsurePath to spin up fresh unknown-RTT paths mid-connection. The
    // live paths 0/1 get their abuse from TamperInTransit instead: a
    // forged packet must sit above the receive horizon to be accepted, and
    // every such injection drags the victim's packet-number reconstruction
    // base further away from the honest sender's — after a few hundred
    // injections honest packets no longer decode and the path is dead for
    // reasons inherent to the attacker model, not bugs.
    const PathId pid{static_cast<std::uint8_t>(2 + rng_.NextBounded(4))};
    BufWriter payload;
    const std::size_t count = rng_.NextBounded(3) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      EncodeFrame(RandomPathManagementFrame(), payload);
    }
    const std::vector<std::uint8_t> original(payload.data());
    std::vector<std::uint8_t> plaintext = original;
    if (rng_.NextBool(0.7)) {
      MutateBytes(rng_, plaintext, rng_.NextBounded(6) + 1);
    }
    // A keyed attacker can kill or stall the connection with one HONEST
    // frame — CONNECTION_CLOSE closes it, a forged in-window STREAM fin
    // pins a final size the real sender will never reach, a forged ACK
    // marks lost data delivered so it is never retransmitted. Those are
    // inherent to the attacker model, not robustness bugs, so mutations
    // that land on them are reverted: this test asserts that
    // *path-management* abuse can never permanently wedge the connection.
    if (!KeepsLivenessAssertable(plaintext)) plaintext = original;
    Inject(to_client, pid, plaintext,
           /*corrupt_after_seal=*/rng_.NextBool(0.1));
    sim_.Run(sim_.now() + 20 * kMillisecond);
  }

  /// End the abuse and let both ends re-announce their addresses — the
  /// ADD_ADDRESS recovery rule is what un-strands any path the forged
  /// REMOVE_ADDRESS / PATHS frames left remote-reported-failed.
  void Heal() {
    tampering_ = false;
    drop_to_client_ = false;
    drop_to_server_ = false;
    for (const sim::Address& addr : kVictimAddrs) {
      client_->AddLocalAddress(addr);
    }
    for (const sim::Address& addr : kPeerAddrs) {
      server_->AddLocalAddress(addr);
    }
  }

  /// Liveness: both directions still reach end-of-stream. Byte-accurate
  /// delivery is out of scope — an attacker with the keys can forge stream
  /// data or fins — the assertion is that nothing deadlocks or dies.
  bool FinishCleanly() {
    sim_.Run(sim_.now() + 60 * kSecond);
    return transfers_finished_ >= 2 && !client_->closed() &&
           !server_->closed();
  }

  Connection& client() { return *client_; }
  Connection& server() { return *server_; }
  sim::Simulator& sim() { return sim_; }

  /// Forge one sealed 1-RTT packet to the chosen endpoint. The packet
  /// number sits a little above the path's receive horizon so it decodes
  /// exactly; the horizon inflation this causes is why the fuzz loop
  /// keeps forgery off the transfer-carrying paths (see Step).
  void Inject(bool to_client, PathId pid, std::vector<std::uint8_t> plaintext,
              bool corrupt_after_seal) {
    Connection& dst = to_client ? *client_ : *server_;
    if (dst.closed()) return;
    Path* path = dst.GetPath(pid);
    const PacketNumber base = path == nullptr
                                  ? PacketNumber{800}
                                  : path->receiver().largest_received();
    const PacketNumber pn = base + 20 + rng_.NextBounded(40);
    PacketHeader header;
    header.cid = kForgeCid;
    header.multipath = true;
    header.path_id = pid;
    header.handshake = false;
    header.packet_number = pn;
    BufWriter writer;
    EncodeHeader(header, PacketNumber{0}, writer);
    std::vector<std::uint8_t> bytes(writer.data());
    const crypto::PacketProtection& prot =
        to_client ? *to_client_ : *to_server_;
    std::vector<std::uint8_t> sealed = prot.Seal(pid, pn, bytes, plaintext);
    if (corrupt_after_seal && !sealed.empty()) {
      sealed[rng_.NextBounded(sealed.size())] ^= 0x40;
    }
    bytes.insert(bytes.end(), sealed.begin(), sealed.end());
    // Occasionally arrive from an unexpected source address to exercise
    // the NAT-rebinding follow under forged traffic — but only on the
    // attacker-created path ids: the rebind trusts any authenticated
    // packet, so hijacking the remotes of the transfer-carrying paths 0/1
    // on both sides at once would deadlock the connection by design (no
    // path validation in this stack), not by bug.
    sim::Address src = to_client ? kPeerAddrs[0] : kVictimAddrs[0];
    if (pid.value() >= 2 && rng_.NextBool(0.2)) {
      src = sim::Address{9, static_cast<std::uint16_t>(rng_.NextBounded(4))};
    }
    const sim::Datagram dgram{src, to_client ? kVictimAddrs[0] : kPeerAddrs[0],
                              std::move(bytes)};
    dst.OnDatagram(dgram);
  }

  /// Adversarial path-management frame: unknown path ids, absurd RTTs,
  /// the victim's own addresses, duplicates, unroutable addresses.
  Frame RandomPathManagementFrame() {
    const sim::Address pool[] = {kVictimAddrs[0], kVictimAddrs[1],
                                 kPeerAddrs[0],  kPeerAddrs[1],
                                 {9, 0},         {9, 1},
                                 {37, 21}};
    constexpr std::size_t kPoolSize = std::size(pool);
    switch (rng_.NextBounded(3)) {
      case 0: {
        PathsFrame f;
        const std::size_t count = rng_.NextBounded(8);
        for (std::size_t i = 0; i < count; ++i) {
          f.paths.push_back(
              {PathId{static_cast<std::uint8_t>(rng_.NextBounded(16))},
               rng_.NextBool(0.5) ? PathStatus::kPotentiallyFailed
                                  : PathStatus::kActive,
               static_cast<Duration>(rng_.NextBounded(1ULL << 40))});
        }
        return f;
      }
      case 1: {
        AddAddressFrame f;
        const std::size_t count = rng_.NextBounded(5) + 1;
        for (std::size_t i = 0; i < count; ++i) {
          f.addresses.push_back(pool[rng_.NextBounded(kPoolSize)]);
        }
        return f;
      }
      default: {
        RemoveAddressFrame f;
        const std::size_t count = rng_.NextBounded(3) + 1;
        for (std::size_t i = 0; i < count; ++i) {
          f.addresses.push_back(pool[rng_.NextBounded(kPoolSize)]);
        }
        return f;
      }
    }
  }

 private:
  void Forward(bool to_server, sim::Address local, sim::Address remote,
               std::vector<std::uint8_t> bytes) {
    SniffHandshakeNonces(bytes);
    if (to_server ? drop_to_server_ : drop_to_client_) return;
    // Route only to addresses the destination actually owns; datagrams
    // aimed at forged ADD_ADDRESS destinations blackhole like the real
    // network would.
    const auto& owned = to_server ? kPeerAddrs : kVictimAddrs;
    if (std::find(std::begin(owned), std::end(owned), remote) ==
        std::end(owned)) {
      return;
    }
    TrackAndMaybeTamper(to_server, bytes,
                        /*tamper=*/tampering_ && rng_.NextBool(0.35));
    sim_.Schedule(5 * kMillisecond,
                  [this, to_server, local, remote,
                   bytes = std::move(bytes)]() mutable {
                    Connection& dst = to_server ? *server_ : *client_;
                    if (dst.closed()) return;
                    const sim::Datagram dgram{local, remote, std::move(bytes)};
                    dst.OnDatagram(dgram);
                  });
  }

  /// Mirror the receiver's packet-number reconstruction for every packet
  /// the attacker relays, and — while the fuzz loop runs — rewrite some of
  /// them: decrypt with the derived keys, append (possibly mutated)
  /// path-management frames, and re-seal under the SAME packet number.
  /// Unlike whole-packet forgery this leaves the path's packet-number
  /// space untouched, so it is the one way to keep hammering the live
  /// paths 0/1 with adversarial frames — including during the outage
  /// windows, when those paths are potentially-failed — without wedging
  /// packet-number reconstruction forever.
  void TrackAndMaybeTamper(bool to_server, std::vector<std::uint8_t>& bytes,
                           bool tamper) {
    BufReader reader(bytes);
    ParsedHeader parsed;
    if (!DecodeHeader(reader, parsed)) return;
    const PathId pid =
        parsed.header.multipath ? parsed.header.path_id : PathId{0};
    if (pid.value() >= kTrackedPaths) return;
    PacketNumber& largest = largest_relayed_[to_server ? 1 : 0][pid.value()];
    const PacketNumber pn = DecodePacketNumber(
        largest, parsed.header.packet_number, parsed.pn_length);
    if (pn > largest) largest = pn;
    if (!tamper || parsed.header.handshake || !to_server_ || !to_client_) {
      return;
    }
    const crypto::PacketProtection& prot =
        to_server ? *to_server_ : *to_client_;
    const std::span<const std::uint8_t> aad =
        std::span<const std::uint8_t>(bytes).subspan(0, parsed.header_size);
    std::vector<std::uint8_t> plaintext;
    if (!prot.Open(pid, pn, aad,
                   std::span<const std::uint8_t>(bytes)
                       .subspan(parsed.header_size),
                   plaintext)) {
      // The attacker's horizon estimate drifted (a forged packet moved the
      // victim's); relay the packet untouched.
      return;
    }
    BufWriter extra;
    const std::size_t count = rng_.NextBounded(2) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      EncodeFrame(RandomPathManagementFrame(), extra);
    }
    const std::vector<std::uint8_t> appended(extra.data());
    std::vector<std::uint8_t> mutated = appended;
    if (rng_.NextBool(0.7)) {
      MutateBytes(rng_, mutated, rng_.NextBounded(4) + 1);
    }
    // The appendix rides a REAL packet: if it fails to decode, the whole
    // packet (honest frames included) is discarded after its packet number
    // was recorded — silent data loss the sender will never repair, i.e. a
    // stall inherent to holding the keys. Same for mutations that morph
    // into the honest frame types that can kill or stall a connection
    // outright (see Step). Either way fall back to the unmutated frames.
    if (!FullyDecodesLivenessSafe(mutated)) mutated = appended;
    plaintext.insert(plaintext.end(), mutated.begin(), mutated.end());
    const std::vector<std::uint8_t> sealed =
        prot.Seal(pid, pn, aad, plaintext);
    bytes.resize(parsed.header_size);
    bytes.insert(bytes.end(), sealed.begin(), sealed.end());
  }

  void SniffHandshakeNonces(const std::vector<std::uint8_t>& bytes) {
    if (!client_nonce_.empty() && !server_nonce_.empty()) return;
    BufReader reader(bytes);
    ParsedHeader parsed;
    if (!DecodeHeader(reader, parsed) || !parsed.header.handshake) return;
    BufReader frames(
        std::span<const std::uint8_t>(bytes).subspan(parsed.header_size));
    Frame frame;
    while (DecodeFrame(frames, frame)) {
      const auto* hs = std::get_if<HandshakeFrame>(&frame);
      if (hs == nullptr) continue;
      if (hs->message == HandshakeMessageType::kChlo) {
        client_nonce_ = hs->nonce;
      } else if (hs->message == HandshakeMessageType::kShlo) {
        server_nonce_ = hs->nonce;
      }
    }
  }

  static bool KeepsLivenessAssertable(const std::vector<std::uint8_t>& bytes) {
    BufReader reader(bytes);
    Frame frame;
    while (DecodeFrame(reader, frame)) {
      if (std::holds_alternative<ConnectionCloseFrame>(frame) ||
          std::holds_alternative<StreamFrame>(frame) ||
          std::holds_alternative<RstStreamFrame>(frame) ||
          std::holds_alternative<AckFrame>(frame)) {
        return false;
      }
    }
    return true;
  }

  /// Strict variant for frames spliced into real packets: every byte must
  /// decode, and no decoded frame may be one of the kill/stall types.
  static bool FullyDecodesLivenessSafe(const std::vector<std::uint8_t>& bytes) {
    BufReader reader(bytes);
    Frame frame;
    while (reader.remaining() > 0) {
      if (!DecodeFrame(reader, frame)) return false;
      if (std::holds_alternative<ConnectionCloseFrame>(frame) ||
          std::holds_alternative<StreamFrame>(frame) ||
          std::holds_alternative<RstStreamFrame>(frame) ||
          std::holds_alternative<AckFrame>(frame)) {
        return false;
      }
    }
    return true;
  }

  static constexpr std::uint8_t kTrackedPaths = 16;

  Rng rng_;
  sim::Simulator sim_;
  ConnectionConfig config_;
  std::unique_ptr<Connection> client_;
  std::unique_ptr<Connection> server_;
  std::vector<std::uint8_t> client_nonce_;
  std::vector<std::uint8_t> server_nonce_;
  std::optional<crypto::PacketProtection> to_client_;
  std::optional<crypto::PacketProtection> to_server_;
  bool drop_to_client_ = false;
  bool drop_to_server_ = false;
  bool tampering_ = false;
  /// Per-direction, per-path largest packet number the attacker has
  /// relayed — its copy of each receiver's reconstruction base.
  std::array<std::array<PacketNumber, kTrackedPaths>, 2> largest_relayed_{};
  int transfers_finished_ = 0;
};

TEST(FuzzMutation, ForgedPathFramesAgainstFailedPathsNeverCrashConnection) {
  OnPathAttacker attacker(0xF0552007);
  ASSERT_TRUE(attacker.EstablishAndDeriveKeys());
  attacker.StartTransfers();
  for (int iter = 0; iter < 400; ++iter) {
    attacker.Step(iter);
  }
  attacker.Heal();
  const bool clean = attacker.FinishCleanly();
  EXPECT_TRUE(clean);
  // The abuse must have actually reached the dispatcher: some forged
  // packets decrypt (and get processed), some fail authentication.
  EXPECT_GT(attacker.client().stats().packets_received, 100u);
  EXPECT_GT(attacker.client().stats().packets_decrypt_failed, 0u);
}

// A keyed attacker forges STOP_WAITING floors above everything the victim
// received on the transfer-carrying paths 0/1. Applied, such a floor would
// turn every honest packet below it into a duplicate and stall the
// transfer for good; the receiver must ignore it, as it ignores an ACK of
// an unsent packet. The frames ride forged packets on attacker-created
// path ids, so the victim's packet-number spaces on paths 0/1 stay honest.
TEST(FuzzMutation, ForgedStopWaitingAboveLargestReceivedIsIgnored) {
  OnPathAttacker attacker(0xF0552009);
  ASSERT_TRUE(attacker.EstablishAndDeriveKeys());
  attacker.StartTransfers(/*tamper=*/false);
  Rng rng(0x5709);
  std::uint64_t forged = 0;
  for (int iter = 0; iter < 100; ++iter) {
    const bool to_client = iter % 2 == 0;
    Connection& victim = to_client ? attacker.client() : attacker.server();
    const PathId target{static_cast<std::uint8_t>(rng.NextBounded(2))};
    const Path* path = victim.GetPath(target);
    if (path != nullptr) {
      const PacketNumber floor = path->receiver().largest_received() + 2 +
                                 PacketNumber{rng.NextBounded(1000)};
      BufWriter payload;
      EncodeFrame(StopWaitingFrame{target, floor}, payload);
      attacker.Inject(to_client,
                      PathId{static_cast<std::uint8_t>(2 + rng.NextBounded(4))},
                      std::vector<std::uint8_t>(payload.data()),
                      /*corrupt_after_seal=*/false);
      ++forged;
    }
    attacker.sim().Run(attacker.sim().now() + 20 * kMillisecond);
  }
  EXPECT_GT(forged, 50u);
  EXPECT_EQ(attacker.client().stats().invalid_stop_waitings_ignored +
                attacker.server().stats().invalid_stop_waitings_ignored,
            forged);
  EXPECT_TRUE(attacker.FinishCleanly());
}

TEST(FuzzMutation, CorruptedSealedPacketsAreDroppedNotProcessed) {
  OnPathAttacker attacker(0xF0552008);
  ASSERT_TRUE(attacker.EstablishAndDeriveKeys());
  const std::uint64_t failed_before =
      attacker.client().stats().packets_decrypt_failed;
  for (int i = 0; i < 200; ++i) {
    BufWriter payload;
    EncodeFrame(attacker.RandomPathManagementFrame(), payload);
    attacker.Inject(/*to_client=*/true, PathId{0},
                    std::vector<std::uint8_t>(payload.data()),
                    /*corrupt_after_seal=*/true);
    attacker.sim().Run(attacker.sim().now() + kMillisecond);
  }
  // Every corrupted packet fails the tag check and changes nothing: no
  // path was stranded and the connection is still alive.
  EXPECT_GE(attacker.client().stats().packets_decrypt_failed,
            failed_before + 200);
  ASSERT_NE(attacker.client().GetPath(PathId{0}), nullptr);
  EXPECT_TRUE(attacker.client().GetPath(PathId{0})->Usable());
  EXPECT_FALSE(attacker.client().closed());
}

}  // namespace
}  // namespace mpq::quic

namespace mpq::obs {
namespace {

/// Produce a realistic trace through the actual writer.
std::string MakeTrace(Rng& rng) {
  std::stringstream stream;
  {
    QlogTracer tracer(stream, "fuzz");
    TimePoint now = 0;
    const int events = static_cast<int>(rng.NextBounded(40)) + 5;
    for (int i = 0; i < events; ++i) {
      now += static_cast<TimePoint>(rng.NextBounded(5000));
      const PathId path{static_cast<std::uint8_t>(rng.NextBounded(4))};
      switch (rng.NextBounded(4)) {
        case 0:
          tracer.OnPacketSent(now, path, PacketNumber{rng.NextBounded(1000)},
                              ByteCount{rng.NextBounded(1350)}, true);
          break;
        case 1:
          tracer.OnPacketLost(now, path, PacketNumber{rng.NextBounded(1000)});
          break;
        case 2:
          tracer.OnSchedulerDecision(now, path, "lowest-rtt",
                                     rng.NextBounded(100));
          break;
        default:
          tracer.OnPathSample(now, path, ByteCount{rng.NextBounded(1 << 20)},
                              ByteCount{rng.NextBounded(1 << 20)},
                              static_cast<Duration>(rng.NextBounded(1 << 20)));
          break;
      }
    }
  }
  return stream.str();
}

TEST(FuzzMutation, MutatedTracesNeverCrashReader) {
  Rng rng(0xF0552005);
  for (int iter = 0; iter < 1500; ++iter) {
    std::string text = MakeTrace(rng);
    // Byte-level corruption of the NDJSON text itself.
    const std::size_t edits = rng.NextBounded(12) + 1;
    for (std::size_t i = 0; i < edits; ++i) {
      if (text.empty()) break;
      const std::size_t pos = rng.NextBounded(text.size());
      if (rng.NextBool(0.5)) {
        text[pos] = static_cast<char>(rng.NextBounded(256));
      } else {
        text[pos] ^= static_cast<char>(1 << rng.NextBounded(8));
      }
    }
    // Sometimes cut the tail off mid-line (crashed-writer shape).
    if (rng.NextBool(0.4)) {
      text.resize(rng.NextBounded(text.size() + 1));
    }
    std::istringstream in(text);
    const TraceSummary summary = ReadTrace(in);
    // A corrupted trace may lose events but can never invent time
    // running backwards in the summary bounds.
    if (summary.events > 0) {
      EXPECT_LE(summary.first_time, summary.last_time);
    }
  }
}

TEST(FuzzMutation, TruncatedTracesCountTailAsMalformed) {
  Rng rng(0xF0552006);
  for (int iter = 0; iter < 300; ++iter) {
    const std::string text = MakeTrace(rng);
    // Cut inside the final line: strict NDJSON must flag the tail.
    const std::size_t last_nl = text.find_last_of('\n', text.size() - 2);
    const std::size_t cut =
        last_nl + 2 + rng.NextBounded(text.size() - last_nl - 2);
    std::istringstream in(text.substr(0, cut));
    const TraceSummary summary = ReadTrace(in);
    EXPECT_GE(summary.malformed, 1u) << "iter " << iter;
  }
}

}  // namespace
}  // namespace mpq::obs
