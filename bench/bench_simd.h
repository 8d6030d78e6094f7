// The "simd" block shared by bench_perf_baseline and bench_many_conn
// (docs/PERFORMANCE.md, "Reading BENCH_PR10.json"): the dispatch level
// the run used plus per-level AEAD seal/open micro costs at MTU size,
// so an engine regression can be attributed to kernel selection vs.
// datapath drift at a glance.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "crypto/aead.h"
#include "crypto/cpu.h"
#include "obs/json.h"

namespace mpq::bench {

/// Emit `"simd": {active_level, levels: {<name>: {aead_seal_ns,
/// aead_open_ns}, ...}}` into `writer` (which must be inside an open
/// object). The levels are "scalar", "avx2" and "avx512vl", each listed
/// only when compiled in and supported by the machine. Forces each level
/// in turn and restores MaxSimdLevel() before returning — call it
/// outside any timed leg.
inline void WriteSimdBlock(obs::JsonWriter& writer) {
  using Clock = std::chrono::steady_clock;
  crypto::ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7);
  }
  const crypto::PacketProtection protection(key);
  const std::vector<std::uint8_t> plaintext(1300, 0x42);
  const std::uint8_t aad[14] = {};
  constexpr std::size_t kIters = 50000;

  auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  auto time_runs = [&](auto&& body) {
    std::vector<double> runs;
    for (int run = 0; run < 3; ++run) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kIters; ++i) body(i);
      runs.push_back(std::chrono::duration<double>(Clock::now() - t0).count() *
                     1e9 / kIters);
    }
    return median(std::move(runs));
  };

  writer.Key("simd");
  writer.BeginObject();
  writer.Key("active_level")
      .String(crypto::SimdLevelName(crypto::MaxSimdLevel()));
  writer.Key("levels");
  writer.BeginObject();
  for (int l = 0; l <= static_cast<int>(crypto::MaxSimdLevel()); ++l) {
    const auto level = static_cast<crypto::SimdLevel>(l);
    crypto::ForceSimdLevel(level);
    std::vector<std::uint8_t> buf(plaintext.size() + crypto::kAeadTagSize);
    const double seal_ns = time_runs([&](std::size_t i) {
      std::copy(plaintext.begin(), plaintext.end(), buf.begin());
      protection.SealInPlace(PathId{1}, PacketNumber{i + 1}, aad, buf);
    });
    std::copy(plaintext.begin(), plaintext.end(), buf.begin());
    protection.SealInPlace(PathId{1}, PacketNumber{99}, aad, buf);
    const std::vector<std::uint8_t> sealed = buf;
    const double open_ns = time_runs([&](std::size_t) {
      std::copy(sealed.begin(), sealed.end(), buf.begin());
      std::size_t plaintext_len = 0;
      if (!protection.OpenInPlace(PathId{1}, PacketNumber{99}, aad, buf,
                                  plaintext_len)) {
        std::abort();
      }
    });
    writer.Key(crypto::SimdLevelName(level));
    writer.BeginObject();
    writer.Key("aead_seal_ns").Double(seal_ns);
    writer.Key("aead_open_ns").Double(open_ns);
    writer.EndObject();
  }
  crypto::ForceSimdLevel(crypto::MaxSimdLevel());
  writer.EndObject();
  writer.EndObject();
}

}  // namespace mpq::bench
