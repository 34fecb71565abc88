#include "core/loss_scenarios.h"

#include <gtest/gtest.h>

#include <vector>

namespace quicer::core {
namespace {

using Drops = std::vector<std::uint64_t>;

TEST(LossScenarios, SmallCertFlightIsTwoDatagrams) {
  EXPECT_EQ(ServerFlightDatagrams(tls::kSmallCertificateBytes, http::Version::kHttp1), 2);
  EXPECT_EQ(ServerFlightDatagrams(tls::kSmallCertificateBytes, http::Version::kHttp3), 2);
}

TEST(LossScenarios, LargeCertFlightIsLonger) {
  EXPECT_GE(ServerFlightDatagrams(tls::kLargeCertificateBytes, http::Version::kHttp1), 5);
}

TEST(LossScenarios, Fig6WfcDropsDatagramTwo) {
  // "loss of packet 2 (WFC)" — the flight tail after the coalesced ACK+SH.
  const netem::LossModels loss = FirstServerFlightTailLoss(
      quic::ServerBehavior::kWaitForCertificate, tls::kSmallCertificateBytes,
      http::Version::kHttp1);
  EXPECT_EQ(loss[netem::kDown].drop_indices, (Drops{2}));
  EXPECT_EQ(loss[netem::kDown].kind, netem::LossModel::Kind::kNone);
}

TEST(LossScenarios, Fig6IackDropsDatagramsTwoAndThree) {
  // "loss of packets 2 and 3 (IACK)" — datagram 1 is the instant ACK; the
  // client direction loses nothing.
  const netem::LossModels loss = FirstServerFlightTailLoss(
      quic::ServerBehavior::kInstantAck, tls::kSmallCertificateBytes, http::Version::kHttp1);
  EXPECT_EQ(loss[netem::kDown].drop_indices, (Drops{2, 3}));
  EXPECT_TRUE(loss[netem::kUp].IsDefault());
}

TEST(LossScenarios, SecondClientFlightFollowsTable4) {
  for (clients::ClientImpl impl : clients::kAllClients) {
    const netem::LossModels loss = SecondClientFlightLoss(impl);
    // The ClientHello (datagram 1) survives; the flight is 2..1+flight.
    Drops want;
    for (int i = 2; i <= 1 + clients::SecondFlightDatagrams(impl); ++i) {
      want.push_back(static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(loss[netem::kUp].drop_indices, want) << clients::Name(impl);
    EXPECT_TRUE(loss[netem::kDown].IsDefault()) << clients::Name(impl);
  }
}

TEST(LossScenarios, QuicheOneAndPicoquicFourDatagramFlights) {
  EXPECT_EQ(SecondClientFlightLoss(clients::ClientImpl::kQuiche)[netem::kUp].drop_indices,
            (Drops{2}));
  EXPECT_EQ(SecondClientFlightLoss(clients::ClientImpl::kPicoquic)[netem::kUp].drop_indices,
            (Drops{2, 3, 4, 5}));
}

TEST(LossScenarios, FlightLossResolvesAgainstTheConfig) {
  ExperimentConfig config;
  config.client = clients::ClientImpl::kPicoquic;
  config.behavior = quic::ServerBehavior::kInstantAck;
  EXPECT_TRUE(netem::IsDefault(FlightLoss(LossCase::kNoLoss, config)));
  EXPECT_EQ(FlightLoss(LossCase::kFirstServerFlightTail, config),
            FirstServerFlightTailLoss(config.behavior, config.certificate_bytes, config.http));
  EXPECT_EQ(FlightLoss(LossCase::kSecondClientFlight, config),
            SecondClientFlightLoss(config.client));
}

TEST(LossScenarios, FlightNamesRoundTrip) {
  for (LossCase c : kLossCases) EXPECT_EQ(FlightFromName(FlightName(c)), c);
  EXPECT_EQ(FlightName(LossCase::kFirstServerFlightTail), "first-server-flight-tail");
  EXPECT_FALSE(FlightFromName("no loss").has_value());
}

}  // namespace
}  // namespace quicer::core
