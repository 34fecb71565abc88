#include "netem/loss_process.h"

#include <algorithm>

namespace quicer::netem {
namespace {

/// One probability-`p` event. Certain and impossible outcomes skip the draw
/// so that e.g. the classic Gilbert channel (loss_good = 0, loss_bad = 1)
/// spends its randomness only on state transitions.
bool Happens(double p, sim::Rng& rng) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rng.NextDouble() < p;
}

}  // namespace

bool LossProcess::ShouldDrop(std::uint64_t index, sim::Rng& rng) {
  const std::vector<std::uint64_t>& drops = model_.drop_indices;
  if (std::find(drops.begin(), drops.end(), index) != drops.end()) return true;
  switch (model_.kind) {
    case LossModel::Kind::kNone:
      return false;
    case LossModel::Kind::kBernoulli:
      return Happens(model_.rate, rng);
    case LossModel::Kind::kGilbertElliott: {
      // The datagram experiences the state it arrives in; the chain then
      // advances once per datagram.
      const bool drop = Happens(bad_ ? model_.loss_bad : model_.loss_good, rng);
      if (Happens(bad_ ? model_.r : model_.p, rng)) bad_ = !bad_;
      return drop;
    }
  }
  return false;
}

}  // namespace quicer::netem
