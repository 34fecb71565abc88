// The scenario loss stage of sim::Link (Config::loss): the paper's dropped
// datagram indices per direction, optionally with Bernoulli loss, counted
// as pattern drops.
#include "sim/loss.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/link.h"

namespace quicer::sim {
namespace {

using netem::kDown;
using netem::kUp;

/// Sends `n` datagrams in `direction` and returns the delivered indices.
std::vector<std::uint64_t> Delivered(const netem::LossModels& loss, Direction direction,
                                     int n, std::uint64_t seed = 1) {
  EventQueue queue;
  Link::Config config;
  config.loss = loss;
  Link link(queue, config, Rng(seed));
  std::vector<std::uint64_t> delivered;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t index = link.PeekNextIndex(direction);
    link.Send(direction, 100, [&delivered, index] { delivered.push_back(index); });
  }
  queue.RunUntilIdle();
  EXPECT_EQ(link.stats(direction).dropped_pattern,
            static_cast<std::uint64_t>(n) - delivered.size());
  EXPECT_EQ(link.stats(direction).dropped_stochastic, 0u);
  return delivered;
}

TEST(ScenarioLoss, DefaultDropsNothing) {
  EXPECT_STREQ(ToString(Direction::kServerToClient), "server->client");
  EXPECT_EQ(Delivered({}, Direction::kClientToServer, 100).size(), 100u);
  EXPECT_EQ(Delivered({}, Direction::kServerToClient, 100).size(), 100u);
}

TEST(ScenarioLoss, DropsConfiguredIndicesOfTheirDirectionOnly) {
  netem::LossModels loss;
  loss[kDown].drop_indices = {2, 3};
  EXPECT_EQ(Delivered(loss, Direction::kServerToClient, 5),
            (std::vector<std::uint64_t>{1, 4, 5}));
  EXPECT_EQ(Delivered(loss, Direction::kClientToServer, 5).size(), 5u);
}

TEST(ScenarioLoss, BernoulliDropsCountAsPatternDrops) {
  netem::LossModels loss;
  loss[kUp].drop_indices = {1};
  loss[kUp].kind = netem::LossModel::Kind::kBernoulli;
  loss[kUp].rate = 0.25;
  const int n = 20000;
  const std::vector<std::uint64_t> delivered = Delivered(loss, Direction::kClientToServer, n, 99);
  EXPECT_NE(delivered.front(), 1u);
  EXPECT_NEAR(1.0 - static_cast<double>(delivered.size()) / n, 0.25, 0.01);
}

}  // namespace
}  // namespace quicer::sim
