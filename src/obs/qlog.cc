#include "obs/qlog.h"

#include <string_view>
#include <variant>

namespace mpq::obs {

namespace {

/// Frame-type-specific fields appended to frame_sent / frame_received /
/// frame_requeued events, enough to follow a transfer without decoding
/// packets: ACK coverage, stream progress, window limits, path status.
void WriteFrameFields(JsonWriter& writer, const quic::Frame& frame) {
  using namespace quic;
  writer.Key("frame").String(FrameTypeName(frame));
  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, AckFrame>) {
          writer.Key("acked_path").UInt(f.path_id.value());
          writer.Key("largest_acked").UInt(f.LargestAcked().value());
          writer.Key("ack_delay_us").Int(f.ack_delay);
          writer.Key("ranges").UInt(f.ranges.size());
        } else if constexpr (std::is_same_v<T, StopWaitingFrame>) {
          writer.Key("acked_path").UInt(f.path_id.value());
          writer.Key("least_unacked").UInt(f.least_unacked.value());
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          writer.Key("stream").UInt(f.stream_id.value());
          writer.Key("offset").UInt(f.offset.value());
          writer.Key("length").UInt(f.length.value());
          writer.Key("fin").Bool(f.fin);
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          writer.Key("stream").UInt(f.stream_id.value());
          writer.Key("max_data").UInt(f.max_data.value());
        } else if constexpr (std::is_same_v<T, BlockedFrame>) {
          writer.Key("stream").UInt(f.stream_id.value());
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          writer.Key("stream").UInt(f.stream_id.value());
          writer.Key("error_code").UInt(f.error_code);
          writer.Key("final_offset").UInt(f.final_offset.value());
        } else if constexpr (std::is_same_v<T, PathsFrame>) {
          writer.Key("paths").BeginArray();
          for (const auto& entry : f.paths) {
            writer.BeginObject();
            writer.Key("path").UInt(entry.path_id.value());
            writer.Key("status").String(
                entry.status == PathStatus::kActive ? "active"
                                                    : "potentially-failed");
            writer.Key("srtt_us").Int(entry.srtt);
            writer.EndObject();
          }
          writer.EndArray();
        } else if constexpr (std::is_same_v<T, AddAddressFrame> ||
                             std::is_same_v<T, RemoveAddressFrame>) {
          writer.Key("addresses").UInt(f.addresses.size());
        } else if constexpr (std::is_same_v<T, HandshakeFrame>) {
          writer.Key("message").String(
              f.message == HandshakeMessageType::kChlo ? "CHLO" : "SHLO");
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          writer.Key("error_code").UInt(f.error_code);
          writer.Key("reason").String(f.reason);
        }
        // PADDING, PING: the type name says it all.
      },
      frame);
}

}  // namespace

QlogTracer::QlogTracer(std::ostream& out, std::string title) : out_(out) {
  // Preamble line: identifies the format (readers skip lines without a
  // "name" member).
  writer_.Clear();
  writer_.BeginObject();
  writer_.Key("qlog_format").String("NDJSON");
  writer_.Key("tool").String("mpquic");
  writer_.Key("title").String(title);
  writer_.Key("time_unit").String("us");
  writer_.EndObject();
  out_ << writer_.str() << '\n';
}

QlogTracer::~QlogTracer() { out_.flush(); }

JsonWriter& QlogTracer::StartEvent(TimePoint now, const char* name) {
  writer_.Clear();
  writer_.BeginObject();
  writer_.Key("time").Int(now);
  writer_.Key("name").String(name);
  writer_.Key("data").BeginObject();
  return writer_;
}

void QlogTracer::FinishEvent() {
  writer_.EndObject();  // data
  writer_.EndObject();  // event
  out_ << writer_.str() << '\n';
  ++events_written_;
}

void QlogTracer::FrameEvent(TimePoint now, const char* name, PathId path,
                            const quic::Frame& frame) {
  JsonWriter& writer = StartEvent(now, name);
  writer.Key("path").UInt(path.value());
  WriteFrameFields(writer, frame);
  FinishEvent();
}

void QlogTracer::OnPacketSent(TimePoint now, PathId path, PacketNumber pn,
                              ByteCount bytes, bool retransmittable) {
  JsonWriter& writer = StartEvent(now, "transport:packet_sent");
  writer.Key("path").UInt(path.value());
  writer.Key("pn").UInt(pn.value());
  writer.Key("bytes").UInt(bytes.value());
  writer.Key("retransmittable").Bool(retransmittable);
  FinishEvent();
}

void QlogTracer::OnPacketReceived(TimePoint now, PathId path,
                                  PacketNumber pn, ByteCount bytes) {
  JsonWriter& writer = StartEvent(now, "transport:packet_received");
  writer.Key("path").UInt(path.value());
  writer.Key("pn").UInt(pn.value());
  writer.Key("bytes").UInt(bytes.value());
  FinishEvent();
}

void QlogTracer::OnPacketLost(TimePoint now, PathId path, PacketNumber pn) {
  JsonWriter& writer = StartEvent(now, "recovery:packet_lost");
  writer.Key("path").UInt(path.value());
  writer.Key("pn").UInt(pn.value());
  FinishEvent();
}

void QlogTracer::OnPacketLifecycle(TimePoint now, PathId path,
                                   PacketNumber pn, const char* stage,
                                   Duration since_sent) {
  JsonWriter& writer = StartEvent(now, "prof:lifecycle");
  writer.Key("path").UInt(path.value());
  writer.Key("pn").UInt(pn.value());
  writer.Key("stage").String(stage);
  writer.Key("since_sent_us").Int(since_sent);
  FinishEvent();
}

void QlogTracer::OnFrameSent(TimePoint now, PathId path,
                             const quic::Frame& frame) {
  FrameEvent(now, "transport:frame_sent", path, frame);
}

void QlogTracer::OnFrameReceived(TimePoint now, PathId path,
                                 const quic::Frame& frame) {
  FrameEvent(now, "transport:frame_received", path, frame);
}

void QlogTracer::OnSchedulerDecision(TimePoint now, PathId chosen,
                                     const char* reason,
                                     std::uint64_t elapsed_ns) {
  JsonWriter& writer = StartEvent(now, "scheduler:decision");
  writer.Key("path").UInt(chosen.value());
  writer.Key("reason").String(reason);
  writer.Key("elapsed_ns").UInt(elapsed_ns);
  FinishEvent();
}

void QlogTracer::OnPathSample(TimePoint now, PathId path, ByteCount cwnd,
                              ByteCount in_flight, Duration srtt) {
  JsonWriter& writer = StartEvent(now, "recovery:metrics_updated");
  writer.Key("path").UInt(path.value());
  writer.Key("cwnd").UInt(cwnd.value());
  writer.Key("bytes_in_flight").UInt(in_flight.value());
  writer.Key("srtt_us").Int(srtt);
  FinishEvent();
}

void QlogTracer::OnRto(TimePoint now, PathId path, int consecutive) {
  JsonWriter& writer = StartEvent(now, "recovery:rto");
  writer.Key("path").UInt(path.value());
  writer.Key("consecutive").Int(consecutive);
  FinishEvent();
}

void QlogTracer::OnFrameRetransmitQueued(TimePoint now, PathId path,
                                         const quic::Frame& frame) {
  FrameEvent(now, "recovery:frame_requeued", path, frame);
}

void QlogTracer::OnFlowControlBlocked(TimePoint now, StreamId stream) {
  JsonWriter& writer = StartEvent(now, "flow_control:blocked");
  writer.Key("stream").UInt(stream.value());
  FinishEvent();
}

void QlogTracer::OnHandshakeEvent(TimePoint now, const char* milestone) {
  JsonWriter& writer = StartEvent(now, "transport:handshake");
  writer.Key("milestone").String(milestone);
  FinishEvent();
}

void QlogTracer::OnPathStateChange(TimePoint now, PathId path,
                                   const char* state) {
  JsonWriter& writer = StartEvent(now, "transport:path_state");
  writer.Key("path").UInt(path.value());
  writer.Key("state").String(state);
  FinishEvent();
}

void QlogTracer::OnLinkFault(TimePoint now, int path, const char* kind,
                             double value) {
  // Down/up transitions get their own event names (they are what a
  // handover analysis looks for); every other fault kind shares sim:fault
  // with the kind in the data object.
  const std::string_view kind_view(kind);
  if (kind_view == "down" || kind_view == "up") {
    JsonWriter& writer = StartEvent(
        now, kind_view == "down" ? "sim:link_down" : "sim:link_up");
    writer.Key("path").Int(path);
    FinishEvent();
    return;
  }
  JsonWriter& writer = StartEvent(now, "sim:fault");
  writer.Key("path").Int(path);
  writer.Key("kind").String(kind);
  writer.Key("value").Double(value);
  FinishEvent();
}

}  // namespace mpq::obs
