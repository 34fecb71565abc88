#include "core/loss_scenarios.h"

#include <algorithm>

#include "quic/types.h"

namespace quicer::core {
namespace {

/// Drops datagrams [first, last] (1-based) in direction `dir`.
netem::LossModels DropRange(int dir, int first, int last) {
  netem::LossModels models;
  for (int i = first; i <= last; ++i) {
    models[dir].drop_indices.push_back(static_cast<std::uint64_t>(i));
  }
  return models;
}

}  // namespace

std::string_view FlightName(LossCase c) {
  switch (c) {
    case LossCase::kNoLoss: return "none";
    case LossCase::kFirstServerFlightTail: return "first-server-flight-tail";
    case LossCase::kSecondClientFlight: return "second-client-flight";
  }
  return "?";
}

std::optional<LossCase> FlightFromName(std::string_view name) {
  for (LossCase c : kLossCases) {
    if (FlightName(c) == name) return c;
  }
  return std::nullopt;
}

int ServerFlightDatagrams(std::size_t certificate_bytes, http::Version version,
                          const tls::HandshakeSizes& sizes) {
  // Initial packet: header + ACK + CRYPTO[SH]; then Handshake CRYPTO bytes;
  // then the 1-RTT tail (H3 SETTINGS + NEW_CONNECTION_ID).
  const std::size_t initial_packet = 28 + 10 + 6 + sizes.server_hello + quic::kAeadTagSize;
  const std::size_t handshake_bytes = sizes.encrypted_extensions + certificate_bytes +
                                      sizes.certificate_verify + sizes.finished;
  std::size_t app_bytes = 30;  // NEW_CONNECTION_ID
  if (version == http::Version::kHttp3) app_bytes += http::kH3SettingsBytes + 15;

  // Per-datagram usable payload after long-header + AEAD overhead.
  const std::size_t per_datagram = quic::kMaxDatagramSize - 60;
  std::size_t total = initial_packet + handshake_bytes + 40 /*hs headers*/ + app_bytes;
  int datagrams = 0;
  while (total > 0) {
    ++datagrams;
    total -= std::min(total, per_datagram);
  }
  return datagrams;
}

netem::LossModels FirstServerFlightTailLoss(quic::ServerBehavior behavior,
                                            std::size_t certificate_bytes,
                                            http::Version version) {
  const int flight = ServerFlightDatagrams(certificate_bytes, version);
  // WFC: datagram 1 = coalesced ACK+SH(+HS head); drop 2..flight.
  // IACK: datagram 1 = instant ACK; the flight occupies 2..flight+1.
  const int last = behavior == quic::ServerBehavior::kWaitForCertificate ? flight : flight + 1;
  return DropRange(netem::kDown, 2, last);
}

netem::LossModels SecondClientFlightLoss(clients::ClientImpl client) {
  return DropRange(netem::kUp, 2, 1 + clients::SecondFlightDatagrams(client));
}

netem::LossModels FlightLoss(LossCase flight, const ExperimentConfig& config) {
  switch (flight) {
    case LossCase::kNoLoss: return {};
    case LossCase::kFirstServerFlightTail:
      return FirstServerFlightTailLoss(config.behavior, config.certificate_bytes, config.http);
    case LossCase::kSecondClientFlight: return SecondClientFlightLoss(config.client);
  }
  return {};
}

}  // namespace quicer::core
