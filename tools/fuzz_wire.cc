// libFuzzer harness for the wire parser — the same external input
// surface tests/fuzz_mutation_test.cc covers with deterministic
// mutation fuzzing, wired up for coverage-guided search. One input
// exercises all three decoder entry points (DecodeFrame, DecodePayload,
// DecodeHeader); the oracle is crash-freedom plus the mutation test's
// cheap consistency checks (a decoded frame must re-encode to exactly
// FrameWireSize bytes, a decoded header must be self-consistent).
//
// Built by -DMPQ_LIBFUZZER=ON. On a toolchain with -fsanitize=fuzzer
// (clang) this is a real libFuzzer binary; elsewhere (the baseline
// container is GCC) CMake defines MPQ_FUZZ_STANDALONE and this file
// supplies a main() that replays corpus files once each, silently
// ignoring libFuzzer-style "-flag" arguments — so tools/ci.sh runs the
// identical command either way and the harness plus seed corpus stay
// compiled and exercised even where libFuzzer is unavailable.
//
// Regenerate the seed corpus (standalone build only):
//   build-fuzz/tools/fuzz_wire --write-seeds tools/fuzz_corpus/wire
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/buf.h"
#include "common/types.h"
#include "quic/wire.h"

namespace {

void Require(bool ok) {
  if (!ok) std::abort();
}

void FuzzWire(std::span<const std::uint8_t> bytes) {
  using namespace mpq;        // NOLINT
  using namespace mpq::quic;  // NOLINT
  {
    BufReader reader(bytes);
    Frame frame;
    if (DecodeFrame(reader, frame)) {
      BufWriter reencoded;
      EncodeFrame(frame, reencoded);
      Require(reencoded.size() == FrameWireSize(frame));
    }
  }
  {
    std::vector<Frame> frames;
    if (DecodePayload(bytes, frames)) {
      for (const Frame& frame : frames) {
        BufWriter reencoded;
        EncodeFrame(frame, reencoded);
        Require(reencoded.size() == FrameWireSize(frame));
      }
    }
  }
  {
    BufReader reader(bytes);
    ParsedHeader parsed;
    if (DecodeHeader(reader, parsed)) {
      Require(parsed.header_size >= parsed.pn_length);
      Require(parsed.header_size <= bytes.size());
      (void)DecodePacketNumber(PacketNumber{1000}, parsed.header.packet_number,
                               parsed.pn_length);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzWire(std::span<const std::uint8_t>(data, size));
  return 0;
}

#ifdef MPQ_FUZZ_STANDALONE

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

namespace {

namespace fs = std::filesystem;

/// The checked-in seeds: one representative encoding per wire surface,
/// handcrafted and fully deterministic so regeneration is a no-op diff.
void WriteSeeds(const fs::path& dir) {
  using namespace mpq;        // NOLINT
  using namespace mpq::quic;  // NOLINT
  fs::create_directories(dir);
  const auto write = [&dir](const char* name, const BufWriter& writer) {
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(writer.data().data()),
              static_cast<std::streamsize>(writer.size()));
  };

  {  // A mid-transfer STREAM frame with payload and fin.
    std::vector<std::uint8_t> payload;
    for (std::uint8_t i = 0; i < 32; ++i) payload.push_back(i);
    StreamFrame frame;
    frame.stream_id = StreamId{3};
    frame.offset = ByteCount{1200};
    frame.length = ByteCount{payload.size()};
    frame.fin = true;
    frame.data = payload;
    BufWriter writer;
    EncodeFrame(frame, writer);
    write("stream", writer);
  }
  {  // A multi-range ACK for path 1.
    AckFrame frame;
    frame.path_id = PathId{1};
    frame.ack_delay = 500;
    frame.ranges.push_back({PacketNumber{7}, PacketNumber{9}});
    frame.ranges.push_back({PacketNumber{1}, PacketNumber{4}});
    BufWriter writer;
    EncodeFrame(frame, writer);
    write("ack", writer);
  }
  {  // STOP_WAITING for path 1, after the ACK it answers.
    BufWriter writer;
    AckFrame ack;
    ack.path_id = PathId{1};
    ack.ranges.push_back({PacketNumber{300}, PacketNumber{310}});
    ack.ranges.push_back({PacketNumber{280}, PacketNumber{290}});
    EncodeFrame(ack, writer);
    EncodeFrame(StopWaitingFrame{PathId{1}, PacketNumber{295}}, writer);
    write("stop_waiting", writer);
  }
  {  // Flow control trio as one payload: WINDOW_UPDATE, BLOCKED, PING.
    BufWriter writer;
    WindowUpdateFrame wu;
    wu.stream_id = StreamId{0};
    wu.max_data = ByteCount{1 << 20};
    EncodeFrame(wu, writer);
    BlockedFrame blocked;
    blocked.stream_id = StreamId{3};
    EncodeFrame(blocked, writer);
    EncodeFrame(PingFrame{}, writer);
    write("flow_control", writer);
  }
  {  // Path management pair: PATHS status + ADD_ADDRESS/REMOVE_ADDRESS.
    BufWriter writer;
    PathsFrame paths;
    paths.paths.push_back({PathId{0}, PathStatus::kActive, 20000});
    paths.paths.push_back({PathId{1}, PathStatus::kPotentiallyFailed, 35000});
    EncodeFrame(paths, writer);
    AddAddressFrame add;
    add.addresses.push_back({2, 0});
    add.addresses.push_back({2, 1});
    EncodeFrame(add, writer);
    RemoveAddressFrame remove;
    remove.addresses.push_back({2, 1});
    EncodeFrame(remove, writer);
    write("path_mgmt", writer);
  }
  {  // CHLO with a full-size nonce.
    HandshakeFrame frame;
    frame.message = HandshakeMessageType::kChlo;
    for (std::uint8_t i = 0; i < 16; ++i) frame.nonce.push_back(i);
    BufWriter writer;
    EncodeFrame(frame, writer);
    write("chlo", writer);
  }
  {  // Teardown pair: RST_STREAM then CONNECTION_CLOSE.
    BufWriter writer;
    RstStreamFrame rst;
    rst.stream_id = StreamId{3};
    rst.error_code = 7;
    rst.final_offset = ByteCount{4096};
    EncodeFrame(rst, writer);
    ConnectionCloseFrame close;
    close.error_code = 1;
    close.reason = "seed";
    EncodeFrame(close, writer);
    write("teardown", writer);
  }
  {  // A full multipath packet header ahead of a tiny payload.
    PacketHeader header;
    header.cid = 0xC1D;
    header.multipath = true;
    header.path_id = PathId{1};
    header.packet_number = PacketNumber{300};
    BufWriter writer;
    EncodeHeader(header, PacketNumber{295}, writer);
    EncodeFrame(PingFrame{}, writer);
    write("header", writer);
  }
}

int ReplayFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz_wire: cannot read %s\n", path.c_str());
    return 1;
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--write-seeds" && i + 1 < argc) {
      WriteSeeds(argv[++i]);
      std::printf("fuzz_wire: seed corpus written\n");
      continue;
    }
    // libFuzzer-style flags (-max_total_time=30, -seed=1, ...): ignore,
    // so the same ci.sh command works for both builds of this binary.
    if (!arg.empty() && arg.front() == '-') continue;
    inputs.emplace_back(arg);
  }
  std::size_t replayed = 0;
  for (const fs::path& input : inputs) {
    if (fs::is_directory(input)) {
      std::vector<fs::path> files;
      for (const auto& entry : fs::directory_iterator(input)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const fs::path& file : files) {
        if (ReplayFile(file) != 0) return 1;
        ++replayed;
      }
    } else {
      if (ReplayFile(input) != 0) return 1;
      ++replayed;
    }
  }
  std::printf("fuzz_wire standalone: replayed %zu corpus inputs OK\n",
              replayed);
  return 0;
}

#endif  // MPQ_FUZZ_STANDALONE
