// Packet protection for (MP)QUIC packets: a compact AEAD built from
// ChaCha20 (confidentiality) and SipHash-2-4 (64-bit authentication tag),
// plus the key schedule used by the simulated secure handshake.
//
// SECURITY CAVEAT (documented substitution, see DESIGN.md §1): this AEAD
// is a stand-in for QUIC crypto / TLS — it exercises the same code paths
// (key derivation, per-packet nonce construction, tag verification,
// ciphertext expansion) but is NOT a vetted AEAD construction and must
// not be used outside this simulator.
//
// The nonce construction implements the paper's §3 mitigation for nonce
// reuse across paths: the full 32-bit Path ID is mixed into the nonce
// together with the per-path packet number, so (path, packet number)
// pairs can never collide into the same nonce even though every path
// restarts its packet numbers at 1.
//
// Hot-path shape: one ChaCha20 call per packet (a single vector kernel
// call for any length, crypto/cpu.h) and one SipHash pass over the
// ciphertext, which is still in L1 by then. Open verifies the tag before
// it decrypts. The datapath seals each packet once where it was
// assembled (quic/assembler.h) and opens each received datagram once
// (quic/dispatch.h); nothing groups packets.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "crypto/chacha20.h"
#include "crypto/siphash.h"

namespace mpq::crypto {

/// Bytes of ciphertext expansion per packet.
inline constexpr std::size_t kAeadTagSize = 8;

/// Derive 32 bytes from `secret` bound to `label` (toy KDF: SipHash-2-4 in
/// counter mode, keyed by the first half of the secret).
std::array<std::uint8_t, 32> Kdf32(std::span<const std::uint8_t> secret,
                                   std::string_view label);

/// One direction of packet protection.
class PacketProtection {
 public:
  /// `key` is the 32-byte directional key from the key schedule; the tag
  /// key is derived from it internally.
  explicit PacketProtection(const ChaChaKey& key);

  /// Encrypt `plaintext` and append the tag. `aad` is the unencrypted
  /// public header, which is thereby authenticated (QUIC property:
  /// middleboxes cannot modify even the visible header fields).
  std::vector<std::uint8_t> Seal(PathId path, PacketNumber pn,
                                 std::span<const std::uint8_t> aad,
                                 std::span<const std::uint8_t> plaintext) const;

  /// Verify and decrypt into `out` (a reused scratch vector — its capacity
  /// is recycled across packets). Returns false on a bad tag or truncated
  /// input; callers drop the packet. On failure `out`'s contents are
  /// unspecified.
  bool Open(PathId path, PacketNumber pn, std::span<const std::uint8_t> aad,
            std::span<const std::uint8_t> sealed,
            std::vector<std::uint8_t>& out) const;

  /// Zero-allocation seal over a caller-provided buffer: on entry the
  /// first `buf.size() - kAeadTagSize` bytes hold the plaintext; on return
  /// they hold the ciphertext and the last kAeadTagSize bytes the tag.
  /// Produces byte-identical output to Seal. `buf` must not overlap `aad`.
  /// Precondition: buf.size() >= kAeadTagSize.
  void SealInPlace(PathId path, PacketNumber pn,
                   std::span<const std::uint8_t> aad,
                   std::span<std::uint8_t> buf) const;

  /// Zero-allocation open: `buf` holds ciphertext | tag. Verifies the tag,
  /// then decrypts, leaving the plaintext in place; `plaintext_len`
  /// receives buf.size() - kAeadTagSize. Returns false on a bad tag or
  /// truncated input — the buffer then still holds exactly the bytes the
  /// caller passed (a packet that fails the tag is never decrypted).
  bool OpenInPlace(PathId path, PacketNumber pn,
                   std::span<const std::uint8_t> aad,
                   std::span<std::uint8_t> buf,
                   std::size_t& plaintext_len) const;

 private:
  ChaChaNonce MakeNonce(PathId path, PacketNumber pn) const;
  std::uint64_t Tag(const ChaChaNonce& nonce,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> ciphertext) const;

  ChaChaKey cipher_key_;
  SipHashKey tag_key_;
};

/// Directional key pair for one connection.
struct SessionKeys {
  ChaChaKey client_to_server;
  ChaChaKey server_to_client;
};

/// Compute the session keys both ends derive at the end of the simulated
/// 1-RTT handshake. `server_config_secret` models the out-of-band server
/// config of Google-QUIC's low-latency handshake (both ends know it);
/// the two nonces are the fresh randomness exchanged in CHLO/SHLO. Each
/// input is length-prefixed before hashing, so different splits of the
/// same concatenated bytes yield different master secrets.
SessionKeys DeriveSessionKeys(std::span<const std::uint8_t> client_nonce,
                              std::span<const std::uint8_t> server_nonce,
                              std::span<const std::uint8_t> server_config_secret);

}  // namespace mpq::crypto
