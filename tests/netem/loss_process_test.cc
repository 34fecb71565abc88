#include "netem/loss_process.h"

#include <gtest/gtest.h>

#include <vector>

namespace quicer::netem {
namespace {

LossModel Bernoulli(double rate) {
  LossModel model;
  model.kind = LossModel::Kind::kBernoulli;
  model.rate = rate;
  return model;
}

LossModel Gilbert(double p, double r, double loss_good = 0.0, double loss_bad = 1.0) {
  LossModel model;
  model.kind = LossModel::Kind::kGilbertElliott;
  model.p = p;
  model.r = r;
  model.loss_good = loss_good;
  model.loss_bad = loss_bad;
  return model;
}

TEST(LossProcess, DefaultIsInertAndConsumesNoDraws) {
  LossProcess process;
  EXPECT_TRUE(process.inert());
  sim::Rng rng(7);
  sim::Rng untouched(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(process.ShouldDrop(i + 1, rng));
  // The legacy byte-identity contract: an inert process leaves the RNG
  // stream exactly where it found it.
  EXPECT_EQ(rng.NextDouble(), untouched.NextDouble());
}

TEST(LossProcess, DropIndicesDropFirstAndDrawNothing) {
  LossModel model = Bernoulli(0.5);
  model.drop_indices = {2, 5};
  LossProcess process(model);
  sim::Rng rng(7);
  sim::Rng untouched(7);
  EXPECT_TRUE(process.ShouldDrop(2, rng) && process.ShouldDrop(5, rng));
  EXPECT_EQ(rng.NextDouble(), untouched.NextDouble());
  // Alone, a drop list drops exactly its indices; Reset re-arms.
  model.kind = LossModel::Kind::kNone;
  process.Reset(model);
  for (std::uint64_t i = 1; i <= 6; ++i) EXPECT_EQ(process.ShouldDrop(i, rng), i % 3 == 2) << i;
}

TEST(LossProcess, BernoulliExtremesAreDeterministic) {
  LossProcess never(Bernoulli(0.0));
  LossProcess always(Bernoulli(1.0));
  sim::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.ShouldDrop(i + 1, rng));
    EXPECT_TRUE(always.ShouldDrop(i + 1, rng));
  }
}

TEST(LossProcess, BernoulliRateMatchesEmpiricalFrequency) {
  LossProcess process(Bernoulli(0.3));
  sim::Rng rng(42);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) drops += process.ShouldDrop(i + 1, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.02);
}

TEST(LossProcess, SameSeedSameDecisions) {
  LossProcess a(Gilbert(0.1, 0.3));
  LossProcess b(Gilbert(0.1, 0.3));
  sim::Rng rng_a(123);
  sim::Rng rng_b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.ShouldDrop(i + 1, rng_a), b.ShouldDrop(i + 1, rng_b)) << i;
    EXPECT_EQ(a.in_bad_state(), b.in_bad_state()) << i;
  }
}

TEST(LossProcess, GilbertStartsGoodAndClassicChannelDropsIffBad) {
  // Classic Gilbert: loss_good = 0, loss_bad = 1 — the drop decision *is*
  // the state, so drops must exactly track in_bad_state().
  LossProcess process(Gilbert(0.2, 0.4));
  EXPECT_FALSE(process.in_bad_state());
  sim::Rng rng(99);
  int transitions = 0;
  bool prev = false;
  for (int i = 0; i < 2000; ++i) {
    const bool was_bad = process.in_bad_state();
    EXPECT_EQ(process.ShouldDrop(i + 1, rng), was_bad) << i;
    if (process.in_bad_state() != prev) ++transitions;
    prev = process.in_bad_state();
  }
  EXPECT_GT(transitions, 0);
}

TEST(LossProcess, GilbertProducesBursts) {
  // p = 0.05, r = 0.25: mean burst length 1/r = 4. Measure the mean run of
  // consecutive drops; independent losses at the same long-run rate would
  // give runs barely above 1.
  LossProcess process(Gilbert(0.05, 0.25));
  sim::Rng rng(7);
  std::vector<int> bursts;
  int run = 0;
  for (int i = 0; i < 50000; ++i) {
    if (process.ShouldDrop(i + 1, rng)) {
      ++run;
    } else if (run > 0) {
      bursts.push_back(run);
      run = 0;
    }
  }
  ASSERT_FALSE(bursts.empty());
  double mean = 0;
  for (int b : bursts) mean += b;
  mean /= static_cast<double>(bursts.size());
  EXPECT_NEAR(mean, 4.0, 0.5);
}

TEST(LossProcess, GilbertStickyBadStateNeverRecovers) {
  // r = 0 pins the chain in the bad state once entered; p = 1 enters it on
  // the first datagram.
  LossProcess process(Gilbert(1.0, 0.0));
  sim::Rng rng(7);
  EXPECT_FALSE(process.ShouldDrop(1, rng));  // still good for its own fate
  EXPECT_TRUE(process.in_bad_state());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(process.ShouldDrop(i + 1, rng));
}

TEST(LossProcess, GilbertLossyGoodState) {
  // A lossy good state (loss_good = 1) drops even before any transition.
  LossProcess process(Gilbert(0.0, 0.0, /*loss_good=*/1.0, /*loss_bad=*/1.0));
  sim::Rng rng(7);
  EXPECT_TRUE(process.ShouldDrop(1, rng));
  EXPECT_FALSE(process.in_bad_state());
}

}  // namespace
}  // namespace quicer::netem
