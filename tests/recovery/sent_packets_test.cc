#include "recovery/sent_packets.h"

#include <gtest/gtest.h>

namespace quicer::recovery {
namespace {

SentPacket MakePacket(std::uint64_t pn, sim::Time sent, bool ack_eliciting = true,
                      std::size_t bytes = 1200) {
  SentPacket packet;
  packet.packet_number = pn;
  packet.sent_time = sent;
  packet.bytes = bytes;
  packet.ack_eliciting = ack_eliciting;
  packet.in_flight = ack_eliciting;
  return packet;
}

quic::AckFrame AckOf(std::initializer_list<std::uint64_t> pns, sim::Duration delay = 0) {
  quic::AckFrame ack;
  ack.ack_delay = delay;
  for (std::uint64_t pn : pns) {
    ack.ranges.push_back(quic::PnRange{pn, pn});
    ack.largest_acked = std::max(ack.largest_acked, pn);
  }
  return ack;
}

TEST(SentPacketLedger, AckRemovesPacketsAndReportsBytes) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, 10));
  EXPECT_EQ(ledger.bytes_in_flight(), 2400u);

  const AckResult result = ledger.OnAckReceived(AckOf({0, 1}), sim::Millis(50));
  EXPECT_EQ(result.newly_acked.size(), 2u);
  EXPECT_EQ(result.newly_acked_bytes, 2400u);
  EXPECT_EQ(ledger.bytes_in_flight(), 0u);
  EXPECT_EQ(ledger.unacked_count(), 0u);
}

TEST(SentPacketLedger, RttSampleOnlyWhenLargestNewlyAckedIsAckEliciting) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0, /*ack_eliciting=*/true));
  const AckResult result = ledger.OnAckReceived(AckOf({0}), sim::Millis(30));
  EXPECT_TRUE(result.rtt_sample_available);
  EXPECT_EQ(result.latest_rtt, sim::Millis(30));
}

TEST(SentPacketLedger, NoRttSampleWhenLargestAckedUnknown) {
  // The instant-ACK asymmetry: a pure-ACK packet is not tracked, so an ACK
  // of it gives no sample.
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  // Peer acks pn 5 (a pure-ACK packet we never registered) plus pn 0.
  quic::AckFrame ack = AckOf({0, 5});
  const AckResult result = ledger.OnAckReceived(ack, sim::Millis(30));
  EXPECT_FALSE(result.rtt_sample_available);
  EXPECT_TRUE(result.any_ack_eliciting_newly_acked);
}

TEST(SentPacketLedger, DuplicateAckYieldsNothingNew) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnAckReceived(AckOf({0}), sim::Millis(10));
  const AckResult again = ledger.OnAckReceived(AckOf({0}), sim::Millis(20));
  EXPECT_TRUE(again.newly_acked.empty());
  EXPECT_FALSE(again.rtt_sample_available);
}

TEST(SentPacketLedger, PacketThresholdLossAfterThreeNewerAcked) {
  SentPacketLedger ledger;
  for (std::uint64_t pn = 0; pn <= 3; ++pn) ledger.OnPacketSent(MakePacket(pn, 0));
  // Ack 3 only: pn 0 is kPacketThreshold=3 behind -> lost; 1,2 not yet.
  ledger.OnAckReceived(AckOf({3}), sim::Millis(10));
  const auto lost = ledger.DetectLoss(sim::Millis(10), sim::Seconds(10));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].packet_number, 0u);
  EXPECT_EQ(ledger.unacked_count(), 2u);
}

TEST(SentPacketLedger, TimeThresholdLoss) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(5)));
  ledger.OnAckReceived(AckOf({1}), sim::Millis(10));
  // loss_delay 8 ms: pn 0 sent at 0 is over the threshold at t=10.
  const auto lost = ledger.DetectLoss(sim::Millis(10), sim::Millis(8));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].packet_number, 0u);
}

TEST(SentPacketLedger, LossTimeSetForNotYetLostPackets) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, sim::Millis(9)));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(10)));
  ledger.OnAckReceived(AckOf({1}), sim::Millis(12));
  const auto lost = ledger.DetectLoss(sim::Millis(12), sim::Millis(20));
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(ledger.loss_time(), sim::Millis(29));  // 9 + 20
}

TEST(SentPacketLedger, NoLossDetectionBeforeAnyAck) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  const auto lost = ledger.DetectLoss(sim::Seconds(10), sim::Millis(1));
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(ledger.loss_time(), sim::kNever);
}

TEST(SentPacketLedger, HasAckElicitingInFlight) {
  SentPacketLedger ledger;
  EXPECT_FALSE(ledger.HasAckElicitingInFlight());
  ledger.OnPacketSent(MakePacket(0, 0));
  EXPECT_TRUE(ledger.HasAckElicitingInFlight());
  ledger.OnAckReceived(AckOf({0}), sim::Millis(1));
  EXPECT_FALSE(ledger.HasAckElicitingInFlight());
}

TEST(SentPacketLedger, LastAckElicitingSentTime) {
  SentPacketLedger ledger;
  EXPECT_FALSE(ledger.LastAckElicitingSentTime().has_value());
  ledger.OnPacketSent(MakePacket(0, sim::Millis(3)));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(7)));
  ASSERT_TRUE(ledger.LastAckElicitingSentTime().has_value());
  EXPECT_EQ(*ledger.LastAckElicitingSentTime(), sim::Millis(7));
}

TEST(SentPacketLedger, UnackedKeepsRetransmittableFrames) {
  SentPacketLedger ledger;
  SentPacket packet = MakePacket(0, 0);
  // Backing storage stands in for the run arena; the ledger only sees spans.
  quic::Frame backing[] = {quic::CryptoFrame{0, 100, tls::MessageType::kClientHello}};
  packet.retransmittable = FrameSpan{backing, 1};
  ledger.OnPacketSent(std::move(packet));
  ASSERT_EQ(ledger.unacked().size(), 1u);
  const FrameSpan& frames = ledger.unacked()[0].retransmittable;
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<quic::CryptoFrame>(*frames.begin()));
}

TEST(SentPacketLedger, ClearReleasesEverything) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, 0));
  ledger.Clear();
  EXPECT_EQ(ledger.bytes_in_flight(), 0u);
  EXPECT_EQ(ledger.unacked_count(), 0u);
  EXPECT_FALSE(ledger.HasAckElicitingInFlight());
}

TEST(SentPacketLedger, UnackedAscending) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(2, 0));
  EXPECT_EQ(ledger.out_of_order_sends(), 0u);
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, 0));
  std::vector<std::uint64_t> pns;
  for (const SentPacket& packet : ledger.unacked()) pns.push_back(packet.packet_number);
  EXPECT_EQ(pns, (std::vector<std::uint64_t>{0, 1, 2}));
  // Both late arrivals took the (counted) repair path.
  EXPECT_EQ(ledger.out_of_order_sends(), 2u);
}

TEST(SentPacketLedger, AckRangesCoverOnlyContainedPns) {
  SentPacketLedger ledger;
  for (std::uint64_t pn = 0; pn < 5; ++pn) ledger.OnPacketSent(MakePacket(pn, 0));
  quic::AckFrame ack;
  ack.largest_acked = 4;
  ack.ranges = {quic::PnRange{3, 4}, quic::PnRange{0, 0}};
  const AckResult result = ledger.OnAckReceived(ack, sim::Millis(10));
  EXPECT_EQ(result.newly_acked.size(), 3u);
  EXPECT_TRUE(ledger.IsOutstanding(1));
  EXPECT_TRUE(ledger.IsOutstanding(2));
}

}  // namespace
}  // namespace quicer::recovery
