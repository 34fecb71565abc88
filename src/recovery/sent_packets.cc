#include "recovery/sent_packets.h"

#include <algorithm>
#include <utility>

namespace quicer::recovery {

void SentPacketLedger::OnPacketSent(SentPacket packet) {
  if (packet.in_flight) bytes_in_flight_ += packet.bytes;
  // Packet numbers are assigned monotonically per space (Connection's
  // next_pn++), so an append IS the insert.
  unacked_.push_back(packet);
  if (unacked_.size() > 1 &&
      unacked_[unacked_.size() - 2].packet_number >= packet.packet_number) {
    // Out-of-order repair path: no Connection code path reaches this (the
    // counter proves it); it exists for direct ledger users that replay
    // packets out of sequence. Rotate the late record into its sorted slot.
    ++out_of_order_sends_;
    const auto it = std::lower_bound(
        unacked_.begin(), unacked_.end() - 1, packet.packet_number,
        [](const SentPacket& entry, std::uint64_t pn) { return entry.packet_number < pn; });
    std::rotate(it, unacked_.end() - 1, unacked_.end());
  }
}

AckResult SentPacketLedger::OnAckReceived(const quic::AckFrame& ack, sim::Time now) {
  AckResult result;
  OnAckReceivedInto(ack, now, result);
  return result;
}

void SentPacketLedger::OnAckReceivedInto(const quic::AckFrame& ack, sim::Time now,
                                         AckResult& result) {
  result.newly_acked.clear();
  result.largest_newly_acked.reset();
  result.rtt_sample_available = false;
  result.latest_rtt = 0;
  result.newly_acked_bytes = 0;
  result.any_ack_eliciting_newly_acked = false;

  if (!largest_acked_ || ack.largest_acked > *largest_acked_) {
    largest_acked_ = ack.largest_acked;
  }

  // Single ascending compaction pass: acked packets move into the result
  // (preserving ascending-pn order, as the map-based version did), survivors
  // slide down in place.
  auto keep = unacked_.begin();
  for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
    if (ack.Acks(it->packet_number)) {
      SentPacket packet = std::move(*it);
      if (packet.in_flight) bytes_in_flight_ -= packet.bytes;
      result.newly_acked_bytes += packet.bytes;
      if (packet.ack_eliciting) result.any_ack_eliciting_newly_acked = true;
      if (packet.packet_number == ack.largest_acked) {
        // Metadata copy only: the frames stay with the newly_acked entry, so
        // filling this field never allocates.
        SentPacket& meta = result.largest_newly_acked.emplace();
        meta.packet_number = packet.packet_number;
        meta.sent_time = packet.sent_time;
        meta.bytes = packet.bytes;
        meta.ack_eliciting = packet.ack_eliciting;
        meta.in_flight = packet.in_flight;
        if (packet.ack_eliciting) {
          result.rtt_sample_available = true;
          result.latest_rtt = now - packet.sent_time;
        }
      }
      result.newly_acked.push_back(std::move(packet));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  unacked_.erase(keep, unacked_.end());
}

std::vector<SentPacket> SentPacketLedger::DetectLoss(sim::Time now, sim::Duration loss_delay) {
  std::vector<SentPacket> lost;
  DetectLossInto(now, loss_delay, lost);
  return lost;
}

void SentPacketLedger::DetectLossInto(sim::Time now, sim::Duration loss_delay,
                                      std::vector<SentPacket>& lost) {
  lost.clear();
  loss_time_ = sim::kNever;
  if (!largest_acked_) return;

  auto keep = unacked_.begin();
  for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
    const SentPacket& packet = *it;
    if (packet.packet_number >= *largest_acked_) {
      // Vector is ordered: nothing at or above largest_acked can be lost.
      if (keep != it) {
        for (; it != unacked_.end(); ++it, ++keep) *keep = std::move(*it);
      } else {
        keep = unacked_.end();
      }
      break;
    }

    const bool lost_by_packets = *largest_acked_ - packet.packet_number >= kPacketThreshold;
    const sim::Time lost_after = packet.sent_time + loss_delay;
    const bool lost_by_time = lost_after <= now;

    if (lost_by_packets || lost_by_time) {
      SentPacket out = std::move(*it);
      if (out.in_flight) bytes_in_flight_ -= out.bytes;
      lost.push_back(std::move(out));
    } else {
      loss_time_ = std::min(loss_time_, lost_after);
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  unacked_.erase(keep, unacked_.end());
}

bool SentPacketLedger::HasAckElicitingInFlight() const {
  for (const SentPacket& packet : unacked_) {
    if (packet.ack_eliciting && packet.in_flight) return true;
  }
  return false;
}

std::optional<sim::Time> SentPacketLedger::LastAckElicitingSentTime() const {
  std::optional<sim::Time> latest;
  for (const SentPacket& packet : unacked_) {
    if (packet.ack_eliciting) {
      if (!latest || packet.sent_time > *latest) latest = packet.sent_time;
    }
  }
  return latest;
}

bool SentPacketLedger::IsOutstanding(std::uint64_t pn) const {
  return std::binary_search(
      unacked_.begin(), unacked_.end(), pn,
      [](const auto& a, const auto& b) {
        if constexpr (std::is_same_v<std::decay_t<decltype(a)>, std::uint64_t>) {
          return a < b.packet_number;
        } else {
          return a.packet_number < b;
        }
      });
}

void SentPacketLedger::Clear() {
  unacked_.clear();
  bytes_in_flight_ = 0;
  loss_time_ = sim::kNever;
  // largest_acked_ intentionally retained: packet numbers never reset.
}

void SentPacketLedger::Reset() {
  unacked_.clear();
  largest_acked_.reset();
  bytes_in_flight_ = 0;
  loss_time_ = sim::kNever;
  out_of_order_sends_ = 0;
}

}  // namespace quicer::recovery
