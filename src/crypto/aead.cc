#include "crypto/aead.h"

#include <algorithm>
#include <cstring>
#include <optional>

namespace mpq::crypto {

namespace {

std::uint64_t ReadTagLe(const std::uint8_t* tag_bytes) {
  std::uint64_t got = 0;
  for (int i = 7; i >= 0; --i) got = got << 8 | tag_bytes[i];
  return got;
}

void WriteTagLe(std::uint8_t* tag_out, std::uint64_t tag) {
  for (std::size_t i = 0; i < kAeadTagSize; ++i) {
    tag_out[i] = static_cast<std::uint8_t>(tag >> (8 * i));
  }
}

/// Kdf32's secret, taken in pieces: the first 16 bytes key SipHash, the
/// rest start the message (`secret[16:] | label | block counter`). Each
/// piece is absorbed as it arrives, so no contiguous copy of the secret
/// or of the message is built.
class Kdf32Input {
 public:
  void Absorb(std::span<const std::uint8_t> bytes) {
    const std::size_t to_key = std::min(bytes.size(), key_.size() - key_len_);
    // Guard the copy: memcpy from an empty span's data() (null) is UB even
    // for zero bytes.
    if (to_key > 0) {
      std::memcpy(key_.data() + key_len_, bytes.data(), to_key);
      key_len_ += to_key;
      bytes = bytes.subspan(to_key);
    }
    if (bytes.empty()) return;
    if (!message_) message_.emplace(key_);  // the key is complete
    message_->Absorb(bytes);
  }

  /// The four 8-byte blocks, SipHash of the message with counter 0..3.
  std::array<std::uint8_t, 32> Derive(std::string_view label) const {
    // A secret of at most 16 bytes is the zero-padded key and no message.
    SipHashState prefix = message_ ? *message_ : SipHashState(key_);
    prefix.Absorb({reinterpret_cast<const std::uint8_t*>(label.data()),
                   label.size()});
    std::array<std::uint8_t, 32> out{};
    for (std::uint8_t block = 0; block < 4; ++block) {
      SipHashState state = prefix;
      state.Absorb({&block, 1});
      const std::uint64_t h = state.Finalize();
      for (int i = 0; i < 8; ++i) {
        out[8 * block + i] = static_cast<std::uint8_t>(h >> (8 * i));
      }
    }
    return out;
  }

 private:
  SipHashKey key_{};
  std::size_t key_len_ = 0;
  std::optional<SipHashState> message_;
};

}  // namespace

std::array<std::uint8_t, 32> Kdf32(std::span<const std::uint8_t> secret,
                                   std::string_view label) {
  Kdf32Input input;
  input.Absorb(secret);
  return input.Derive(label);
}

PacketProtection::PacketProtection(const ChaChaKey& key) : cipher_key_(key) {
  const auto derived = Kdf32(key, "mpquic tag key");
  std::memcpy(tag_key_.data(), derived.data(), tag_key_.size());
}

ChaChaNonce PacketProtection::MakeNonce(PathId path, PacketNumber pn) const {
  // path id (4, little-endian) | packet number (8, big-endian). Distinct
  // paths therefore always yield distinct nonces (paper §3) — the full
  // 32-bit PathId is encoded, so paths 256 apart cannot collide.
  ChaChaNonce nonce{};
  for (int i = 0; i < 4; ++i) {
    nonce[i] = static_cast<std::uint8_t>(path.value() >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<std::uint8_t>(pn.value() >> (8 * (7 - i)));
  }
  return nonce;
}

std::uint64_t PacketProtection::Tag(
    const ChaChaNonce& nonce, std::span<const std::uint8_t> aad,
    std::span<const std::uint8_t> ciphertext) const {
  // Unambiguous framing: nonce | aad_len | aad | ciphertext, absorbed
  // incrementally — no per-packet material buffer.
  SipHashState state(tag_key_);
  state.Absorb(nonce);
  std::uint8_t aad_len[8];
  for (int i = 0; i < 8; ++i) {
    aad_len[i] = static_cast<std::uint8_t>(aad.size() >> (8 * i));
  }
  state.Absorb(aad_len);
  state.Absorb(aad);
  state.Absorb(ciphertext);
  return state.Finalize();
}

void PacketProtection::SealInPlace(PathId path, PacketNumber pn,
                                   std::span<const std::uint8_t> aad,
                                   std::span<std::uint8_t> buf) const {
  const ChaChaNonce nonce = MakeNonce(path, pn);
  const std::span<std::uint8_t> text = buf.first(buf.size() - kAeadTagSize);
  // One vector cipher call for the whole packet, then the tag over the
  // ciphertext while it is still in L1.
  ChaCha20Xor(cipher_key_, 1, nonce, text);
  WriteTagLe(buf.data() + text.size(), Tag(nonce, aad, text));
}

bool PacketProtection::OpenInPlace(PathId path, PacketNumber pn,
                                   std::span<const std::uint8_t> aad,
                                   std::span<std::uint8_t> buf,
                                   std::size_t& plaintext_len) const {
  if (buf.size() < kAeadTagSize) return false;
  const std::span<std::uint8_t> ciphertext =
      buf.first(buf.size() - kAeadTagSize);
  const ChaChaNonce nonce = MakeNonce(path, pn);
  // Verify, then decrypt: a packet with a bad tag is never decrypted, so
  // the buffer goes back exactly as passed. Constant-time comparison is
  // irrelevant in a simulator but cheap.
  if ((Tag(nonce, aad, ciphertext) ^
       ReadTagLe(buf.data() + ciphertext.size())) != 0) {
    return false;
  }
  ChaCha20Xor(cipher_key_, 1, nonce, ciphertext);
  plaintext_len = ciphertext.size();
  return true;
}

std::vector<std::uint8_t> PacketProtection::Seal(
    PathId path, PacketNumber pn, std::span<const std::uint8_t> aad,
    std::span<const std::uint8_t> plaintext) const {
  std::vector<std::uint8_t> out(plaintext.size() + kAeadTagSize);
  if (!plaintext.empty()) {
    std::memcpy(out.data(), plaintext.data(), plaintext.size());
  }
  SealInPlace(path, pn, aad, out);
  return out;
}

bool PacketProtection::Open(PathId path, PacketNumber pn,
                            std::span<const std::uint8_t> aad,
                            std::span<const std::uint8_t> sealed,
                            std::vector<std::uint8_t>& out) const {
  if (sealed.size() < kAeadTagSize) return false;
  // Copy ciphertext | tag into the scratch and open it in place there,
  // so the caller's input stays pristine (on failure `out` holds the
  // ciphertext; its contents are unspecified then).
  out.assign(sealed.begin(), sealed.end());
  std::size_t plaintext_len = 0;
  if (!OpenInPlace(path, pn, aad, out, plaintext_len)) return false;
  out.resize(plaintext_len);
  return true;
}

SessionKeys DeriveSessionKeys(
    std::span<const std::uint8_t> client_nonce,
    std::span<const std::uint8_t> server_nonce,
    std::span<const std::uint8_t> server_config_secret) {
  // Length-prefix each field (8 bytes little-endian, like Tag() frames
  // the AAD) so distinct (client_nonce, server_nonce, secret) splits of
  // the same concatenated bytes can never alias into one master secret.
  Kdf32Input master;
  for (const auto field : {client_nonce, server_nonce, server_config_secret}) {
    std::array<std::uint8_t, 8> length{};
    for (int i = 0; i < 8; ++i) {
      length[i] = static_cast<std::uint8_t>(field.size() >> (8 * i));
    }
    master.Absorb(length);
    master.Absorb(field);
  }
  SessionKeys keys;
  keys.client_to_server = master.Derive("client to server");
  keys.server_to_client = master.Derive("server to client");
  return keys;
}

}  // namespace mpq::crypto
