// Runtime state machine of a LossModel.
//
// One LossProcess per link direction and loss stage; Link consults it per
// datagram. Listed datagram indices drop first and draw nothing; the
// stochastic kind decides the rest. All randomness comes from the caller's
// Rng (the link's per-repetition fork), and an inert process (no indices,
// Kind::kNone) consumes no draws at all — so selecting the default model
// leaves the legacy RNG stream untouched and runs byte-identical.
#pragma once

#include <cstdint>

#include "netem/model.h"
#include "sim/rng.h"

namespace quicer::netem {

class LossProcess {
 public:
  LossProcess() = default;
  explicit LossProcess(const LossModel& model) : model_(model) {}

  /// Re-arms for a new run; keeps the drop list's storage (no allocation).
  void Reset(const LossModel& model) {
    model_ = model;
    bad_ = false;
  }

  /// True when the process never drops and never draws.
  bool inert() const {
    return model_.kind == LossModel::Kind::kNone && model_.drop_indices.empty();
  }

  /// True when the process is in the Gilbert–Elliott bad state.
  bool in_bad_state() const { return bad_; }

  /// Decides the `index`-th (1-based) datagram's fate; advances the chain.
  bool ShouldDrop(std::uint64_t index, sim::Rng& rng);

 private:
  LossModel model_;
  bool bad_ = false;  // Gilbert–Elliott state; starts in the good state
};

}  // namespace quicer::netem
