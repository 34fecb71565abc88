// Lossy handshakes: reproduce the paper's two deterministic loss scenarios
// for any client implementation and print the recovery story. Each scenario
// resolves to plain netem data — the per-direction datagram indices the
// path drops — which is printed next to the outcome.
//
//   ./lossy_handshakes [client]   (default quic-go; try picoquic or quiche)
#include <cstdio>
#include <string>

#include "core/advisor.h"
#include "core/experiment.h"
#include "core/loss_scenarios.h"

using namespace quicer;

namespace {

clients::ClientImpl ParseClient(const char* name) {
  for (clients::ClientImpl impl : clients::kAllClients) {
    if (clients::Name(impl) == name) return impl;
  }
  std::printf("unknown client '%s'; using quic-go\n", name);
  return clients::ClientImpl::kQuicGo;
}

void Report(core::LossCase flight, core::ExperimentConfig config) {
  std::printf("\n--- %s ---\n", std::string(ToString(flight)).c_str());
  for (quic::ServerBehavior behavior :
       {quic::ServerBehavior::kWaitForCertificate, quic::ServerBehavior::kInstantAck}) {
    config.behavior = behavior;
    // The flight's datagram indices depend on the behavior (the instant ACK
    // shifts the server flight by one datagram) and on the client.
    config.loss = core::FlightLoss(flight, config);
    const core::ExperimentResult result = core::RunExperiment(config);
    std::printf("%5s: drops", ToString(behavior));
    for (int dir : {netem::kUp, netem::kDown}) {
      for (std::uint64_t index : config.loss[dir].drop_indices) {
        std::printf(" %s#%llu", dir == netem::kUp ? "up" : "down",
                    static_cast<unsigned long long>(index));
      }
    }
    std::printf("\n");
    if (result.client.aborted) {
      std::printf("       connection aborted (%s)\n", result.client.abort_reason.c_str());
      continue;
    }
    std::printf("       TTFB %7.1f ms | client PTO expiries %d, probes %d | "
                "server PTO expiries %d | spurious retx %d\n",
                result.TtfbMs(), result.client.pto_expirations,
                result.client.probe_datagrams_sent, result.server.pto_expirations,
                result.client.spurious_retransmits + result.server.spurious_retransmits);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const clients::ClientImpl impl = argc > 1 ? ParseClient(argv[1])
                                            : clients::ClientImpl::kQuicGo;
  std::printf("Loss scenarios for %s at 9 ms RTT (10 KB transfer, HTTP/1.1)\n",
              std::string(clients::Name(impl)).c_str());

  core::ExperimentConfig base;
  base.client = impl;
  base.rtt = sim::Millis(9);
  base.response_body_bytes = http::kSmallFileBytes;
  base.signing = tls::SigningModel{sim::Millis(2.8), 0.0};

  Report(core::LossCase::kFirstServerFlightTail, base);
  Report(core::LossCase::kSecondClientFlight, base);

  std::printf("\nWhen the server flight is lost, the instant ACK backfires: it is not\n"
              "ack-eliciting, so the server holds no RTT sample and resends only after its\n"
              "default PTO. When the client flight is lost, the accurate IACK RTT sample\n"
              "lets the client resend the request ~3 x (server processing) sooner.\n");
  return 0;
}
