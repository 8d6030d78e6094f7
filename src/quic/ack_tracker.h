// Receive-side packet-number tracking for one path: which PNs arrived,
// rendered as the descending range list of an ACK frame (up to 256 ranges,
// §4.1 "Low-BDP-losses" — this is the capacity TCP's 2-3 SACK blocks
// lack). Ranges are kept coalesced, in a sorted vector, as packets
// arrive: an in-order packet extends the last range in place, and
// duplicate detection is a binary search, O(log ranges).
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "quic/wire.h"

namespace mpq::quic {

class ReceivedPacketTracker {
 public:
  /// Record an arriving packet number. Returns false for duplicates (the
  /// packet must then be ignored — its nonce was already consumed).
  bool OnPacketReceived(PacketNumber pn, TimePoint now) {
    if (pn == 0) return false;
    if (!ranges_.empty() && ranges_.back().last + 1 == pn) {
      ranges_.back().last = pn;  // in order: the common case
    } else if (!Insert(pn)) {
      return false;
    }
    if (pn > largest_) {
      largest_ = pn;
      largest_time_ = now;
    }
    return true;
  }

  bool AlreadyReceived(PacketNumber pn) const {
    auto it = UpperBound(pn);
    if (it == ranges_.begin()) return false;
    --it;
    return pn >= it->first && pn <= it->last;
  }

  PacketNumber largest_received() const { return largest_; }
  TimePoint largest_received_time() const { return largest_time_; }
  bool AnythingToAck() const { return largest_ != 0; }

  /// Fill `out` with the descending ACK ranges, reusing its storage. If
  /// there are more than AckFrame::kMaxAckRanges distinct ranges, the
  /// lowest (oldest) ones are silently dropped — exactly the bounded-SACK
  /// truncation behaviour, except the bound is 256 instead of 3.
  void BuildAckRanges(std::vector<AckFrame::Range>& out) const {
    out.clear();
    for (auto it = ranges_.rbegin();
         it != ranges_.rend() && out.size() < AckFrame::kMaxAckRanges;
         ++it) {
      out.push_back({it->first, it->last});
    }
  }
  std::vector<AckFrame::Range> BuildAckRanges() const {
    std::vector<AckFrame::Range> out;
    BuildAckRanges(out);
    return out;
  }

 private:
  /// Closed interval [first, last] of received PNs.
  struct Interval {
    PacketNumber first;
    PacketNumber last;
  };

  /// First interval starting above `pn`.
  std::vector<Interval>::const_iterator UpperBound(PacketNumber pn) const {
    return std::upper_bound(
        ranges_.begin(), ranges_.end(), pn,
        [](PacketNumber v, const Interval& r) { return v < r.first; });
  }

  /// Out-of-order arrival: merge [pn, pn] into its neighbours or insert
  /// it. Returns false if `pn` was already received.
  bool Insert(PacketNumber pn) {
    const auto at = UpperBound(pn);
    const auto next = ranges_.begin() + (at - ranges_.cbegin());
    const bool joins_prev = next != ranges_.begin() &&
                            std::prev(next)->last + 1 >= pn;
    if (joins_prev && std::prev(next)->last >= pn) return false;
    const bool joins_next = next != ranges_.end() && next->first == pn + 1;
    if (joins_prev && joins_next) {
      std::prev(next)->last = next->last;
      ranges_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->last = pn;
    } else if (joins_next) {
      next->first = pn;
    } else {
      ranges_.insert(next, Interval{pn, pn});
    }
    return true;
  }

  /// Coalesced, ascending and disjoint.
  std::vector<Interval> ranges_;
  PacketNumber largest_{};
  TimePoint largest_time_ = 0;
};

}  // namespace mpq::quic
