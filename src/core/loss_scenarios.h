// Builders for the paper's deterministic loss scenarios (§3, Appendix E).
//
// The paper drops *specific datagrams by index* and, because implementations
// coalesce flights differently (Table 4), maps "equal information loss" to
// per-implementation datagram indices. These helpers encode that mapping as
// netem data: per-direction LossModels whose `drop_indices` list the lost
// datagrams.
#pragma once

#include <optional>
#include <string_view>

#include "clients/profiles.h"
#include "core/experiment.h"
#include "http/http.h"
#include "netem/model.h"
#include "quic/server_connection.h"
#include "tls/messages.h"

namespace quicer::core {

/// The paper's loss cases: which handshake flight loses datagrams.
enum class LossCase {
  kNoLoss,
  kFirstServerFlightTail,  // first server flight except first datagram lost
  kSecondClientFlight,     // entire second client flight lost
};
inline constexpr LossCase kLossCases[] = {LossCase::kNoLoss, LossCase::kFirstServerFlightTail,
                                          LossCase::kSecondClientFlight};

/// Scenario-file name of a loss case ("none", "first-server-flight-tail",
/// "second-client-flight").
std::string_view FlightName(LossCase c);

/// Inverse of FlightName; nullopt for unknown names.
std::optional<LossCase> FlightFromName(std::string_view name);

/// Number of UDP datagrams the first server flight occupies for a given
/// certificate size (ServerHello + EncryptedExtensions..Finished + 1-RTT
/// tail, packed into 1200 B datagrams).
int ServerFlightDatagrams(std::size_t certificate_bytes, http::Version version,
                          const tls::HandshakeSizes& sizes = {});

/// Fig 6/12 scenario: lose the remaining first server flight — everything
/// after the first datagram. Under WFC the first datagram carries the
/// coalesced ACK+ServerHello (giving the server an RTT sample via the
/// client's ACK); under IACK it is the instant ACK alone, so the whole
/// ServerHello flight is lost and the server must rely on its default PTO.
netem::LossModels FirstServerFlightTailLoss(quic::ServerBehavior behavior,
                                            std::size_t certificate_bytes,
                                            http::Version version);

/// Fig 7/13 scenario: lose the entire second client flight. The flight's
/// datagram indices follow the implementation's coalescing (Table 4):
/// datagrams 2..(1 + SecondFlightDatagrams(client)).
netem::LossModels SecondClientFlightLoss(clients::ClientImpl client);

/// The drops of `flight` for a fully resolved experiment config (behavior,
/// certificate size, HTTP version, client); no drops for kNoLoss.
netem::LossModels FlightLoss(LossCase flight, const ExperimentConfig& config);

}  // namespace quicer::core
