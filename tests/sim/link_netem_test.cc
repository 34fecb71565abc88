// Link + netem models: stochastic loss, bounded bottleneck queue and
// asymmetric path overrides, plus the jitter-reordering contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netem/model.h"
#include "sim/link.h"

namespace quicer::sim {
namespace {

Link::Config FastConfig() {
  Link::Config config;
  config.one_way_delay = Millis(10);
  config.bandwidth_bps = 10e6;
  config.header_overhead_bytes = 0;
  return config;
}

netem::LossModel Gilbert(double p, double r) {
  netem::LossModel loss;
  loss.kind = netem::LossModel::Kind::kGilbertElliott;
  loss.p = p;
  loss.r = r;
  return loss;
}

netem::QueueModel Fifo(std::size_t depth_pkts) {
  netem::QueueModel queue;
  queue.kind = netem::QueueModel::Kind::kFifo;
  queue.depth_pkts = depth_pkts;
  return queue;
}

/// Sends `n` back-to-back datagrams and returns which were delivered.
std::vector<int> DeliveredUnder(const Link::Config& config, std::uint64_t seed, int n,
                                Direction direction = Direction::kClientToServer) {
  EventQueue queue;
  Link link(queue, config, Rng(seed));
  std::vector<int> delivered;
  for (int i = 1; i <= n; ++i) {
    link.Send(direction, 1250, [&delivered, i] { delivered.push_back(i); });
  }
  queue.RunUntilIdle();
  return delivered;
}

TEST(LinkNetem, DefaultModelMatchesLegacyPipeExactly) {
  // A default LinkModel must not disturb timing or the RNG stream: same
  // deliveries, same times, with and without jitter in play.
  Link::Config legacy = FastConfig();
  legacy.jitter = Millis(2);
  Link::Config modeled = legacy;
  modeled.model = netem::LinkModel{};  // explicit default

  std::vector<Time> times_legacy, times_modeled;
  for (auto* times : {&times_legacy, &times_modeled}) {
    EventQueue queue;
    Link link(queue, times == &times_legacy ? legacy : modeled, Rng(17));
    for (int i = 0; i < 5; ++i) {
      link.Send(Direction::kClientToServer, 1250, [&] { times->push_back(queue.now()); });
    }
    queue.RunUntilIdle();
  }
  EXPECT_EQ(times_legacy, times_modeled);
}

TEST(LinkNetem, GilbertDropsAreSeedDeterministic) {
  Link::Config config = FastConfig();
  config.model.loss[netem::kUp] = Gilbert(0.3, 0.3);

  const std::vector<int> first = DeliveredUnder(config, 42, 200);
  const std::vector<int> second = DeliveredUnder(config, 42, 200);
  EXPECT_EQ(first, second);
  EXPECT_LT(first.size(), 200u);  // the channel actually dropped something
  EXPECT_NE(first, DeliveredUnder(config, 43, 200));  // and the seed matters
}

TEST(LinkNetem, StochasticLossIsPerDirection) {
  Link::Config config = FastConfig();
  config.model.loss[netem::kUp] = Gilbert(1.0, 0.0);  // sticky-bad after 1st

  EventQueue queue;
  Link link(queue, config, Rng(7));
  int up = 0, down = 0;
  for (int i = 0; i < 20; ++i) {
    link.Send(Direction::kClientToServer, 100, [&] { ++up; });
    link.Send(Direction::kServerToClient, 100, [&] { ++down; });
  }
  queue.RunUntilIdle();
  EXPECT_EQ(up, 1);     // only the first datagram beat the sticky bad state
  EXPECT_EQ(down, 20);  // the reverse direction is untouched
  EXPECT_EQ(link.stats(Direction::kClientToServer).dropped_stochastic, 19u);
  EXPECT_EQ(link.stats(Direction::kClientToServer).dropped_pattern, 0u);
  EXPECT_EQ(link.stats(Direction::kServerToClient).dropped_stochastic, 0u);
}

TEST(LinkNetem, StochasticLossAppliesAfterIndexPatterns) {
  // A datagram dropped by the scenario stage never reaches the path stage:
  // the drop lands in dropped_pattern and consumes no RNG draw, so the
  // surviving datagrams see exactly the draws a bare LossProcess on the
  // same seed would hand them.
  Link::Config config = FastConfig();
  config.model.loss[netem::kUp] = Gilbert(0.3, 0.3);
  config.loss[netem::kUp].drop_indices = {1};

  EventQueue queue;
  Link link(queue, config, Rng(42));
  std::vector<int> delivered;
  for (int i = 1; i <= 200; ++i) {
    link.Send(Direction::kClientToServer, 1250, [&delivered, i] { delivered.push_back(i); });
  }
  queue.RunUntilIdle();
  EXPECT_EQ(link.stats(Direction::kClientToServer).dropped_pattern, 1u);

  // Hand-driven reference: datagram 1 is pattern-dropped (no draw), every
  // later datagram takes one ShouldDrop decision off the same RNG stream.
  netem::LossProcess process(config.model.loss[netem::kUp]);
  Rng rng(42);
  std::vector<int> reference;
  for (int i = 2; i <= 200; ++i) {
    if (!process.ShouldDrop(static_cast<std::uint64_t>(i), rng)) reference.push_back(i);
  }
  EXPECT_EQ(delivered, reference);
}

TEST(LinkNetem, AsymmetricPathOverrides) {
  Link::Config config = FastConfig();
  // Down: 40 ms delay at 1 Mbit/s (10 ms serialization for 1250 B).
  config.model.path[netem::kDown].one_way_delay = Millis(40);
  config.model.path[netem::kDown].bandwidth_bps = 1e6;

  EventQueue queue;
  Link link(queue, config, Rng(1));
  Time up_at = -1, down_at = -1;
  link.Send(Direction::kClientToServer, 1250, [&] { up_at = queue.now(); });
  link.Send(Direction::kServerToClient, 1250, [&] { down_at = queue.now(); });
  queue.RunUntilIdle();
  EXPECT_EQ(up_at, Millis(11));    // symmetric base: 1 ms serialization + 10 ms
  EXPECT_EQ(down_at, Millis(50));  // override: 10 ms serialization + 40 ms
}

TEST(LinkNetem, AsymmetricJitterOverrideOnlyAffectsItsDirection) {
  Link::Config config = FastConfig();
  config.model.path[netem::kDown].jitter = Millis(5);

  EventQueue queue;
  Link link(queue, config, Rng(9));
  Time up_at = -1, down_at = -1;
  link.Send(Direction::kClientToServer, 1250, [&] { up_at = queue.now(); });
  link.Send(Direction::kServerToClient, 1250, [&] { down_at = queue.now(); });
  queue.RunUntilIdle();
  EXPECT_EQ(up_at, Millis(11));  // jitter-free direction stays exact
  EXPECT_GT(down_at, Millis(11));
  EXPECT_LE(down_at, Millis(16));
}

TEST(LinkNetem, BoundedQueueDropsAndCountsStats) {
  Link::Config config = FastConfig();
  config.model.queue[netem::kUp] = Fifo(/*depth_pkts=*/3);

  EventQueue queue;
  Link link(queue, config, Rng(1));
  std::vector<Time> deliveries;
  for (int i = 0; i < 6; ++i) {
    link.Send(Direction::kClientToServer, 1250, [&] { deliveries.push_back(queue.now()); });
  }
  queue.RunUntilIdle();
  // 3 admitted (departures 1, 2, 3 ms -> arrivals 11, 12, 13 ms), 3 tail-dropped.
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries, (std::vector<Time>{Millis(11), Millis(12), Millis(13)}));
  const Link::DirectionStats& stats = link.stats(Direction::kClientToServer);
  EXPECT_EQ(stats.dropped_queue, 3u);
  EXPECT_EQ(stats.datagrams_dropped, 3u);
  EXPECT_EQ(stats.max_queue_pkts, 3u);
  EXPECT_EQ(stats.max_queue_bytes, 3u * 1250u);
}

TEST(LinkNetem, UnboundedFifoMatchesLegacyTiming) {
  Link::Config fifo_config = FastConfig();
  fifo_config.model.queue[netem::kUp] = Fifo(/*depth_pkts=*/0);

  for (int i = 0; i < 2; ++i) {
    EventQueue queue;
    Link link(queue, i == 0 ? FastConfig() : fifo_config, Rng(1));
    std::vector<Time> deliveries;
    for (int j = 0; j < 3; ++j) {
      link.Send(Direction::kClientToServer, 1250,
                [&] { deliveries.push_back(queue.now()); });
    }
    queue.RunUntilIdle();
    EXPECT_EQ(deliveries, (std::vector<Time>{Millis(11), Millis(12), Millis(13)})) << i;
  }
}

// The jitter-reordering contract: jitter larger than the inter-datagram
// spacing reorders deliveries, and the realized order is a pure function of
// the link's RNG seed.
TEST(LinkNetem, JitterBeyondSpacingReordersDeterministically) {
  Link::Config config = FastConfig();
  config.jitter = Millis(10);  // spacing is 1 ms/datagram at 10 Mbit/s

  auto order_under = [&](std::uint64_t seed) {
    EventQueue queue;
    Link link(queue, config, Rng(seed));
    std::vector<int> order;
    for (int i = 1; i <= 12; ++i) {
      link.Send(Direction::kClientToServer, 1250, [&order, i] { order.push_back(i); });
    }
    queue.RunUntilIdle();
    return order;
  };

  std::vector<int> sorted_reference;
  bool reordered_for_some_seed = false;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const std::vector<int> order = order_under(seed);
    ASSERT_EQ(order.size(), 12u) << seed;  // jitter delays, never drops
    EXPECT_EQ(order_under(seed), order) << seed;  // bit-repeatable per seed
    sorted_reference = order;
    std::sort(sorted_reference.begin(), sorted_reference.end());
    if (order != sorted_reference) reordered_for_some_seed = true;
  }
  EXPECT_TRUE(reordered_for_some_seed);
}

}  // namespace
}  // namespace quicer::sim
