#include "core/advisor.h"

#include <gtest/gtest.h>

#include "tls/messages.h"

namespace quicer::core {
namespace {

DeploymentScenario SmallCert() {
  DeploymentScenario scenario;
  scenario.certificate_bytes = tls::kSmallCertificateBytes;
  scenario.client_frontend_rtt = sim::Millis(9);
  return scenario;
}

DeploymentScenario LargeCert() {
  DeploymentScenario scenario = SmallCert();
  scenario.certificate_bytes = tls::kLargeCertificateBytes;
  return scenario;
}

TEST(Advisor, LargeCertAlwaysIack) {
  // Table 2 row (2): every column says IACK.
  for (LossCase loss : kLossCases) {
    for (sim::Duration delta : {sim::Millis(1), sim::Millis(500)}) {
      DeploymentScenario scenario = LargeCert();
      scenario.loss = loss;
      scenario.frontend_cert_delay = delta;
      EXPECT_EQ(Advise(scenario), Recommendation::kIack) << ToString(loss);
    }
  }
}

TEST(Advisor, SmallCertServerFlightLossPrefersWfc) {
  DeploymentScenario scenario = SmallCert();
  scenario.loss = LossCase::kFirstServerFlightTail;
  EXPECT_EQ(Advise(scenario), Recommendation::kWfc);
}

TEST(Advisor, SmallCertClientFlightLossPrefersIack) {
  DeploymentScenario scenario = SmallCert();
  scenario.loss = LossCase::kSecondClientFlight;
  EXPECT_EQ(Advise(scenario), Recommendation::kIack);
}

TEST(Advisor, NoLossDependsOnDeltaVsClientPto) {
  DeploymentScenario scenario = SmallCert();
  scenario.loss = LossCase::kNoLoss;
  scenario.frontend_cert_delay = sim::Millis(20);  // < 3 x 9 ms
  EXPECT_EQ(Advise(scenario), Recommendation::kIack);
  scenario.frontend_cert_delay = sim::Millis(40);  // > 27 ms
  EXPECT_EQ(Advise(scenario), Recommendation::kWfc);
}

TEST(Advisor, CertificateLimitCheck) {
  EXPECT_FALSE(CertificateExceedsAmplificationLimit(SmallCert()));
  EXPECT_TRUE(CertificateExceedsAmplificationLimit(LargeCert()));
}

TEST(Advisor, DeltaWithinPtoBoundary) {
  DeploymentScenario scenario = SmallCert();
  scenario.frontend_cert_delay = sim::Millis(27);
  EXPECT_TRUE(DeltaWithinClientPto(scenario));
  scenario.frontend_cert_delay = sim::Millis(28);
  EXPECT_FALSE(DeltaWithinClientPto(scenario));
}

TEST(Advisor, ToStringRoundTrips) {
  EXPECT_EQ(ToString(Recommendation::kWfc), "WFC");
  EXPECT_EQ(ToString(Recommendation::kIack), "IACK");
  EXPECT_EQ(ToString(LossCase::kNoLoss), "no loss");
}

}  // namespace
}  // namespace quicer::core
