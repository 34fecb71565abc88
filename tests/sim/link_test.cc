#include "sim/link.h"

#include <gtest/gtest.h>

#include <vector>

namespace quicer::sim {
namespace {

Link::Config FastConfig() {
  Link::Config config;
  config.one_way_delay = Millis(10);
  config.bandwidth_bps = 10e6;
  config.header_overhead_bytes = 0;
  return config;
}

TEST(Link, DeliversAfterOneWayDelayPlusSerialisation) {
  EventQueue queue;
  Link link(queue, FastConfig(), Rng(1));
  Time delivered_at = -1;
  // 1250 bytes at 10 Mbit/s = 1 ms serialisation.
  link.Send(Direction::kClientToServer, 1250, [&] { delivered_at = queue.now(); });
  queue.RunUntilIdle();
  EXPECT_EQ(delivered_at, Millis(11));
}

TEST(Link, BackToBackDatagramsQueueAtBottleneck) {
  EventQueue queue;
  Link link(queue, FastConfig(), Rng(1));
  std::vector<Time> deliveries;
  for (int i = 0; i < 3; ++i) {
    link.Send(Direction::kClientToServer, 1250, [&] { deliveries.push_back(queue.now()); });
  }
  queue.RunUntilIdle();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Millis(11));
  EXPECT_EQ(deliveries[1], Millis(12));
  EXPECT_EQ(deliveries[2], Millis(13));
}

TEST(Link, DirectionsDoNotShareTheBottleneck) {
  EventQueue queue;
  Link link(queue, FastConfig(), Rng(1));
  std::vector<Time> deliveries;
  link.Send(Direction::kClientToServer, 1250, [&] { deliveries.push_back(queue.now()); });
  link.Send(Direction::kServerToClient, 1250, [&] { deliveries.push_back(queue.now()); });
  queue.RunUntilIdle();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], Millis(11));
  EXPECT_EQ(deliveries[1], Millis(11));
}

TEST(Link, AssignsMonotonicPerDirectionIndices) {
  EventQueue queue;
  Link link(queue, FastConfig(), Rng(1));
  EXPECT_EQ(link.Send(Direction::kClientToServer, 100, [] {}), 1u);
  EXPECT_EQ(link.Send(Direction::kClientToServer, 100, [] {}), 2u);
  EXPECT_EQ(link.Send(Direction::kServerToClient, 100, [] {}), 1u);
  EXPECT_EQ(link.Send(Direction::kClientToServer, 100, [] {}), 3u);
}

TEST(Link, IndexedLossDropsExactDatagram) {
  EventQueue queue;
  Link::Config config = FastConfig();
  config.loss[netem::kUp].drop_indices = {2};
  Link link(queue, config, Rng(1));
  std::vector<int> delivered;
  for (int i = 1; i <= 3; ++i) {
    link.Send(Direction::kClientToServer, 100, [&delivered, i] { delivered.push_back(i); });
  }
  queue.RunUntilIdle();
  EXPECT_EQ(delivered, (std::vector<int>{1, 3}));
  EXPECT_EQ(link.stats(Direction::kClientToServer).datagrams_dropped, 1u);
  EXPECT_EQ(link.stats(Direction::kClientToServer).datagrams_delivered, 2u);
}

TEST(Link, DroppedDatagramStillConsumesIndex) {
  EventQueue queue;
  Link::Config config = FastConfig();
  config.loss[netem::kDown].drop_indices = {1};
  Link link(queue, config, Rng(1));
  EXPECT_EQ(link.Send(Direction::kServerToClient, 100, [] {}), 1u);
  EXPECT_EQ(link.Send(Direction::kServerToClient, 100, [] {}), 2u);
}

TEST(Link, RttIsTwiceOneWayDelay) {
  EventQueue queue;
  Link link(queue, FastConfig(), Rng(1));
  EXPECT_EQ(link.rtt(), Millis(20));
}

TEST(Link, StatsCountBytes) {
  EventQueue queue;
  Link link(queue, FastConfig(), Rng(1));
  link.Send(Direction::kClientToServer, 700, [] {});
  link.Send(Direction::kClientToServer, 300, [] {});
  queue.RunUntilIdle();
  EXPECT_EQ(link.stats(Direction::kClientToServer).bytes_sent, 1000u);
  EXPECT_EQ(link.stats(Direction::kClientToServer).datagrams_sent, 2u);
}

TEST(Link, SerialisationScalesWithBandwidth) {
  EventQueue queue;
  Link::Config config = FastConfig();
  config.bandwidth_bps = 1e6;  // 1 Mbit/s
  Link link(queue, config, Rng(1));
  Time delivered_at = -1;
  link.Send(Direction::kClientToServer, 1250, [&] { delivered_at = queue.now(); });  // 10 ms
  queue.RunUntilIdle();
  EXPECT_EQ(delivered_at, Millis(20));
}

}  // namespace
}  // namespace quicer::sim
