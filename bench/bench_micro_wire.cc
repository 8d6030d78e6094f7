// Micro-benchmarks (google-benchmark) of the wire-format hot paths:
// varint codec, public-header encode/decode, STREAM and ACK frame
// encode/decode, full-packet assembly. These bound the per-packet CPU
// cost of the implementation (the paper notes QUIC's encryption/framing
// consumes CPU on their emulation platform, §4.1).
#include <benchmark/benchmark.h>

#include "common/buf.h"
#include "quic/wire.h"
#include "tcpsim/segment.h"

namespace {

using namespace mpq;
using namespace mpq::quic;

void BM_VarintEncode(benchmark::State& state) {
  const std::uint64_t value = 1ULL << state.range(0);
  for (auto _ : state) {
    BufWriter w(16);
    w.WriteVarint(value);
    benchmark::DoNotOptimize(w.data().data());
  }
}
BENCHMARK(BM_VarintEncode)->Arg(4)->Arg(12)->Arg(28)->Arg(40);

void BM_VarintDecode(benchmark::State& state) {
  BufWriter w(16);
  w.WriteVarint(1ULL << state.range(0));
  for (auto _ : state) {
    BufReader r(w.span());
    std::uint64_t out = 0;
    r.ReadVarint(out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VarintDecode)->Arg(4)->Arg(40);

void BM_HeaderEncodeDecode(benchmark::State& state) {
  PacketHeader header;
  header.cid = 0x1234567890ABCDEFULL;
  header.path_id = PathId{1};
  header.packet_number = PacketNumber{100000};
  header.multipath = true;
  for (auto _ : state) {
    BufWriter w(32);
    EncodeHeader(header, PacketNumber{99990}, w);
    BufReader r(w.span());
    ParsedHeader parsed;
    DecodeHeader(r, parsed);
    benchmark::DoNotOptimize(parsed.header.packet_number);
  }
}
BENCHMARK(BM_HeaderEncodeDecode);

void BM_StreamFrameEncode(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(state.range(0), 0xAB);
  StreamFrame frame;
  frame.stream_id = StreamId{3};
  frame.offset = ByteCount{1 << 20};
  frame.length = ByteCount{payload.size()};
  frame.data = payload;
  const Frame f{frame};
  for (auto _ : state) {
    BufWriter w(1500);
    EncodeFrame(f, w);
    benchmark::DoNotOptimize(w.data().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamFrameEncode)->Arg(100)->Arg(1300);

void BM_AckFrameEncodeDecode(benchmark::State& state) {
  AckFrame ack;
  ack.path_id = PathId{1};
  ack.ack_delay = 12345;
  PacketNumber pn{10 * state.range(0)};
  for (int i = 0; i < state.range(0); ++i) {
    ack.ranges.push_back({pn, pn + 3});
    pn -= 10;
  }
  const Frame f{ack};
  for (auto _ : state) {
    BufWriter w(4096);
    EncodeFrame(f, w);
    BufReader r(w.span());
    Frame out;
    DecodeFrame(r, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AckFrameEncodeDecode)->Arg(1)->Arg(32)->Arg(256);

void BM_PayloadDecodeMixed(benchmark::State& state) {
  BufWriter w(1500);
  EncodeFrame(Frame{AckFrame{PathId{0}, 100, {{PacketNumber{90}, PacketNumber{100}}}}}, w);
  EncodeFrame(Frame{WindowUpdateFrame{StreamId{0}, ByteCount{1 << 24}}}, w);
  const std::vector<std::uint8_t> payload(1200, 1);
  StreamFrame stream;
  stream.stream_id = StreamId{3};
  stream.offset = ByteCount{777777};
  stream.length = ByteCount{payload.size()};
  stream.data = payload;
  EncodeFrame(Frame{stream}, w);
  for (auto _ : state) {
    std::vector<Frame> frames;
    DecodePayload(w.span(), frames);
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(state.iterations() * w.size());
}
BENCHMARK(BM_PayloadDecodeMixed);

void BM_TcpSegmentEncodeDecode(benchmark::State& state) {
  mpq::tcp::TcpSegment segment;
  segment.cid = 42;
  segment.flags = mpq::tcp::kFlagAck;
  segment.seq = 1 << 20;
  segment.ack = 1 << 19;
  segment.window = 16 << 20;
  segment.sacks = {{100, 1500}, {3000, 4400}, {8000, 9400}};
  segment.dss = mpq::tcp::DssMapping{1 << 21};
  segment.payload.assign(1400, 5);
  for (auto _ : state) {
    BufWriter w(1500);
    EncodeSegment(segment, w);
    BufReader r(w.span());
    mpq::tcp::TcpSegment out;
    DecodeSegment(r, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_TcpSegmentEncodeDecode);

}  // namespace

BENCHMARK_MAIN();
