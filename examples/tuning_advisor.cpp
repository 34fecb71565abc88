// Deployment advisor CLI: should this frontend enable instant ACK?
// Encodes the paper's Table 2 guidelines.
//
//   ./tuning_advisor <cert_bytes> <rtt_ms> <delta_t_ms>
//   e.g. ./tuning_advisor 1212 9 25
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/advisor.h"
#include "core/pto_model.h"

using namespace quicer;

int main(int argc, char** argv) {
  core::DeploymentScenario scenario;
  scenario.certificate_bytes = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1212;
  scenario.client_frontend_rtt = sim::Millis(argc > 2 ? std::atof(argv[2]) : 9.0);
  scenario.frontend_cert_delay = sim::Millis(argc > 3 ? std::atof(argv[3]) : 10.0);

  std::printf("Scenario: certificate %zu B, client RTT %.1f ms, cert-store delay %.1f ms\n\n",
              scenario.certificate_bytes, sim::ToMillis(scenario.client_frontend_rtt),
              sim::ToMillis(scenario.frontend_cert_delay));

  std::printf("certificate exceeds 3x amplification budget: %s\n",
              core::CertificateExceedsAmplificationLimit(scenario) ? "yes" : "no");
  std::printf("delta_t within the client PTO (3 x RTT = %.1f ms): %s\n",
              sim::ToMillis(core::SpuriousBoundary(scenario.client_frontend_rtt)),
              core::DeltaWithinClientPto(scenario) ? "yes" : "no (spurious probes)");
  std::printf("first-PTO saving with instant ACK: %.1f ms\n\n",
              3.0 * sim::ToMillis(scenario.frontend_cert_delay));

  std::printf("%-36s  %s\n", "condition", "recommendation");
  for (core::LossCase loss : core::kLossCases) {
    scenario.loss = loss;
    std::printf("%-36s  %s\n", std::string(ToString(loss)).c_str(),
                std::string(ToString(core::Advise(scenario))).c_str());
  }
  std::printf("\n(Table 2 of the paper: in the majority of scenarios instant ACK is advised;\n"
              "hold off when first-server-flight tail loss dominates and the certificate\n"
              "fits the amplification budget, or when delta_t exceeds the client PTO.)\n");
  return 0;
}
