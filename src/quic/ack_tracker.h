// Receive-side packet-number tracking for one path: which PNs arrived,
// rendered as the descending range list of an ACK frame (§4.1
// "Low-BDP-losses": many more ranges than TCP's 2-3 SACK blocks). Ranges
// are kept coalesced, in a sorted vector, as packets arrive: an in-order
// packet extends the last range in place, and duplicate detection is a
// binary search, O(log ranges). The peer's STOP_WAITING sets a floor
// below which nothing is reported or accepted any more, which is what
// keeps the list short.
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
  /// Packets below the floor count as duplicates.
  bool OnPacketReceived(PacketNumber pn, TimePoint now) {
    if (pn < floor_) return false;
    if (!ranges_.empty() && ranges_.back().last + 1 == pn) {
      ranges_.back().last = pn;  // in order: the common case
    } else if (!Insert(pn)) {
      return false;
    } else if (ranges_.front().last < floor_ && ranges_.size() > 1) {
      // The range kept below the floor as the newest is the newest no more.
      ranges_.erase(ranges_.begin());
    }
    if (pn > largest_) {
      largest_ = pn;
      largest_time_ = now;
    }
    return true;
  }

  /// Whether `pn` lies in a range still kept (ranges below the floor are
  /// forgotten; OnPacketReceived rejects their packets all the same).
  bool AlreadyReceived(PacketNumber pn) const {
    auto it = UpperBound(pn);
    if (it == ranges_.begin()) return false;
    --it;
    return pn >= it->first && pn <= it->last;
  }

  PacketNumber largest_received() const { return largest_; }
  TimePoint largest_received_time() const { return largest_time_; }
  bool AnythingToAck() const { return largest_ != 0; }
  /// Lowest packet number still accepted and reported (1 until the first
  /// STOP_WAITING).
  PacketNumber floor() const { return floor_; }

  /// The peer's STOP_WAITING: it waits for nothing below `least_unacked`.
  /// Drops every range wholly below that floor except the newest one, so
  /// the largest acknowledged packet never changes. Returns false, and
  /// changes nothing, for a floor above largest_received() + 1: the
  /// packet carrying an honest STOP_WAITING is at or above its floor.
  bool OnStopWaiting(PacketNumber least_unacked) {
    if (least_unacked > largest_ + 1) return false;
    if (least_unacked <= floor_) return true;
    floor_ = least_unacked;
    auto keep = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [this](const Interval& r) { return r.last < floor_; });
    if (keep == ranges_.end()) --keep;  // the newest range stays
    ranges_.erase(ranges_.begin(), keep);
    return true;
  }

  /// Fill `out` with the descending ACK ranges, reusing its storage, at
  /// most AckFrame::kMaxAckRanges of them (the wire limit; the lowest are
  /// left out).
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
  PacketNumber floor_{1};  // packet numbers start at 1
};

}  // namespace mpq::quic
