// Deployment advisor — Table 2 ("Guidelines for Instant ACK Deployment").
//
// Encodes the paper's decision matrix: when the certificate exceeds the
// anti-amplification budget, instant ACK always helps; otherwise the answer
// depends on which flight loss dominates and on Δt relative to the client's
// PTO (3x RTT).
#pragma once

#include <string_view>

#include "core/loss_scenarios.h"
#include "quic/types.h"
#include "sim/time.h"

namespace quicer::core {

std::string_view ToString(LossCase c);

struct DeploymentScenario {
  std::size_t certificate_bytes = 1212;
  /// Bytes the server may send off one padded client Initial (3 x 1200).
  std::size_t amplification_budget = 3 * quic::kMinInitialDatagramSize;
  sim::Duration client_frontend_rtt = sim::Millis(9);
  /// Frontend <-> certificate store delay Δt.
  sim::Duration frontend_cert_delay = 0;
  LossCase loss = LossCase::kNoLoss;
};

enum class Recommendation { kWfc, kIack };

std::string_view ToString(Recommendation r);

/// Table 2 lookup.
Recommendation Advise(const DeploymentScenario& scenario);

/// True if the certificate flight exceeds the amplification budget (row 2 of
/// Table 2).
bool CertificateExceedsAmplificationLimit(const DeploymentScenario& scenario);

/// True if Δt is below the client PTO (3 x RTT) — the "zone of reduced
/// latency" of Fig 4.
bool DeltaWithinClientPto(const DeploymentScenario& scenario);

}  // namespace quicer::core
