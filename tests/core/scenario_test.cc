// Scenario codec contract: canonical serialization round-trips byte for
// byte, every validation failure carries an actionable path, labels resolve
// against the live spec plus the builtins, legacy loss labels load as their
// structural form, and the content-hash keeps partials of different grid
// definitions from merging.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"

namespace quicer::core {
namespace {

std::string Replace(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "pattern '" << from << "' not found";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// A synthetic spec exercising every serializable dimension: first-class
/// axes, base and axis losses, function-valued variants, extras, a
/// multi-mode metric set and a custom runner.
SweepSpec TestSpec() {
  SweepSpec spec;
  spec.name = "synthetic";
  spec.base.client = clients::ClientImpl::kNgtcp2;
  spec.base.rtt = sim::Millis(9);
  spec.base.certificate_bytes = 5113;
  spec.base.seed = 42;
  spec.axes.clients = {clients::ClientImpl::kQuicGo, clients::ClientImpl::kQuiche};
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.rtts = {sim::Millis(1), sim::Millis(9.5)};
  spec.base.loss[netem::kUp].kind = netem::LossModel::Kind::kBernoulli;
  spec.base.loss[netem::kUp].rate = 0.01;
  SweepLoss custom{"custom-loss", LossCase::kNoLoss, {}};
  custom.loss[netem::kDown].drop_indices = {2};
  spec.axes.losses = {custom, {"tail", LossCase::kFirstServerFlightTail, {}}};
  spec.axes.variants = {
      {"tuned", [](ExperimentConfig& c) { c.pad_instant_ack = true; }}};
  spec.axes.extras = {{"day", {{"d0", 0}, {"d1", 1}}}};
  spec.repetitions = 3;
  spec.metrics = {{"m", MetricMode::kSummary, /*exclude_negative=*/false,
                   [](const ExperimentResult&) { return 1.0; }},
                  {"t", MetricMode::kTrace, /*exclude_negative=*/true, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    return std::vector<double>{static_cast<double>(ctx.point.index),
                               static_cast<double>(ctx.repetition)};
  };
  spec.seed_base = 123;
  spec.seed_stride = 7;
  spec.reservoir_capacity = 64;
  return spec;
}

std::string FileFor(const SweepSpec& spec) {
  return ScenarioFileJson({{"synthbench", &spec}});
}

TEST(ScenarioCodec, ExportParseApplyReexportIsByteIdentical) {
  const SweepSpec spec = TestSpec();
  const std::string exported = FileFor(spec);

  std::string error;
  const std::optional<std::vector<Scenario>> scenarios = ParseScenarioFile(exported, &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  ASSERT_EQ(scenarios->size(), 1u);

  SweepSpec applied = TestSpec();
  ASSERT_TRUE(ApplyScenario(scenarios->front(), applied, &error)) << error;
  EXPECT_EQ(FileFor(applied), exported);
  EXPECT_EQ(ScenarioHash(applied), ScenarioHash(spec));
}

TEST(ScenarioCodec, ParsePreservesExactValues) {
  std::string error;
  const std::optional<std::vector<Scenario>> scenarios =
      ParseScenarioFile(FileFor(TestSpec()), &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  const Scenario& s = scenarios->front();
  EXPECT_EQ(s.bench, "synthbench");
  EXPECT_EQ(s.sweep, "synthetic");
  EXPECT_EQ(s.repetitions, 3);
  EXPECT_EQ(s.seed_base, 123u);
  EXPECT_EQ(s.seed_stride, 7u);
  EXPECT_EQ(s.reservoir_capacity, 64u);
  EXPECT_EQ(s.base.client, clients::ClientImpl::kNgtcp2);
  EXPECT_EQ(s.base.rtt, sim::Millis(9));
  EXPECT_EQ(s.base.certificate_bytes, 5113u);
  EXPECT_EQ(s.base.seed, 42u);
  ASSERT_EQ(s.rtts.size(), 2u);
  EXPECT_EQ(s.rtts[0], sim::Millis(1));
  EXPECT_EQ(s.rtts[1], sim::Millis(9.5));  // 9500 ticks, exactly
  EXPECT_EQ(s.base.loss, TestSpec().base.loss);
  ASSERT_EQ(s.losses.size(), 2u);
  EXPECT_EQ(s.losses[0].entry.loss, TestSpec().axes.losses[0].loss);
  EXPECT_EQ(s.losses[1].entry.flight, LossCase::kFirstServerFlightTail);
  ASSERT_EQ(s.variants.size(), 1u);
  EXPECT_EQ(s.variants[0], "tuned");
  ASSERT_EQ(s.extras.size(), 1u);
  EXPECT_EQ(s.extras[0].name, "day");
  ASSERT_EQ(s.metrics.size(), 2u);
  EXPECT_EQ(s.metrics[0].name, "m");
  EXPECT_FALSE(s.metrics[0].exclude_negative);
  EXPECT_EQ(s.metrics[1].mode, MetricMode::kTrace);
}

TEST(ScenarioCodec, ApplyResolvesFunctionsFromTheLiveSpec) {
  std::string error;
  const std::optional<std::vector<Scenario>> scenarios =
      ParseScenarioFile(FileFor(TestSpec()), &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  SweepSpec applied = TestSpec();
  ASSERT_TRUE(ApplyScenario(scenarios->front(), applied, &error)) << error;
  ASSERT_EQ(applied.axes.variants.size(), 1u);
  ASSERT_TRUE(static_cast<bool>(applied.axes.variants[0].mutate));
  ExperimentConfig probe;
  applied.axes.variants[0].mutate(probe);
  EXPECT_TRUE(probe.pad_instant_ack);
  ASSERT_EQ(applied.metrics.size(), 2u);
  EXPECT_TRUE(static_cast<bool>(applied.metrics[0].extract));
}

TEST(ScenarioCodec, UnknownFieldsRejectedWithPath) {
  std::string error;
  EXPECT_FALSE(ParseScenarioFile(
                   R"({"format": "quicer-scenario-v1", "scenarios": [{"sweep": "s", "bogus": 1}]})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("scenarios[0]"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  const std::string bad_base =
      Replace(FileFor(TestSpec()), "\"cert_cached\"", "\"cert_cashed\"");
  EXPECT_FALSE(ParseScenarioFile(bad_base, &error).has_value());
  EXPECT_NE(error.find("cert_cashed"), std::string::npos) << error;
  EXPECT_NE(error.find("known:"), std::string::npos) << error;

  const std::string bad_axis = Replace(FileFor(TestSpec()), "\"rtts_ms\"", "\"rtt_ms\"");
  EXPECT_FALSE(ParseScenarioFile(bad_axis, &error).has_value());
  EXPECT_NE(error.find("unknown axis"), std::string::npos) << error;
}

TEST(ScenarioCodec, BadEnumLabelsRejectedWithValidList) {
  std::string error;
  const std::string bad_client = Replace(FileFor(TestSpec()), "\"quic-go\"", "\"quik-go\"");
  EXPECT_FALSE(ParseScenarioFile(bad_client, &error).has_value());
  EXPECT_NE(error.find("quik-go"), std::string::npos) << error;
  EXPECT_NE(error.find("valid:"), std::string::npos) << error;
  EXPECT_NE(error.find("picoquic"), std::string::npos) << error;

  const std::string bad_mode =
      Replace(FileFor(TestSpec()), "\"mode\": \"1-RTT\"", "\"mode\": \"2-RTT\"");
  EXPECT_FALSE(ParseScenarioFile(bad_mode, &error).has_value());
  EXPECT_NE(error.find("handshake mode"), std::string::npos) << error;
}

TEST(ScenarioCodec, OutOfRangeValuesRejected) {
  std::string error;
  const std::string zero_reps =
      Replace(FileFor(TestSpec()), "\"repetitions\": 3", "\"repetitions\": 0");
  EXPECT_FALSE(ParseScenarioFile(zero_reps, &error).has_value());
  EXPECT_NE(error.find("repetitions"), std::string::npos) << error;

  const std::string negative_rtt =
      Replace(FileFor(TestSpec()), "\"rtts_ms\": [1, 9.5]", "\"rtts_ms\": [1, -9.5]");
  EXPECT_FALSE(ParseScenarioFile(negative_rtt, &error).has_value());
  EXPECT_NE(error.find("rtts_ms[1]"), std::string::npos) << error;

  const std::string zero_bandwidth =
      Replace(FileFor(TestSpec()), "\"bandwidth_bps\": 10000000", "\"bandwidth_bps\": 0");
  EXPECT_FALSE(ParseScenarioFile(zero_bandwidth, &error).has_value());
  EXPECT_NE(error.find("bandwidth"), std::string::npos) << error;

  const std::string fractional_cert = Replace(
      FileFor(TestSpec()), "\"certificate_bytes\": 5113", "\"certificate_bytes\": 51.3");
  EXPECT_FALSE(ParseScenarioFile(fractional_cert, &error).has_value());
  EXPECT_NE(error.find("integer"), std::string::npos) << error;
}

TEST(ScenarioCodec, SeedsAreFullRangeUint64Strings) {
  std::string error;
  const std::string big_seed = Replace(FileFor(TestSpec()), "\"seed\": \"42\"",
                                       "\"seed\": \"18446744073709551615\"");
  const std::optional<std::vector<Scenario>> scenarios = ParseScenarioFile(big_seed, &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  EXPECT_EQ(scenarios->front().base.seed, 18446744073709551615ull);

  const std::string numeric_seed =
      Replace(FileFor(TestSpec()), "\"seed\": \"42\"", "\"seed\": 42");
  EXPECT_FALSE(ParseScenarioFile(numeric_seed, &error).has_value());
  EXPECT_NE(error.find("decimal string"), std::string::npos) << error;
}

TEST(ScenarioCodec, FormatMarkerRequired) {
  std::string error;
  EXPECT_FALSE(
      ParseScenarioFile(R"({"format": "nope", "scenarios": []})", &error).has_value());
  EXPECT_NE(error.find("not a scenario file"), std::string::npos) << error;
}

TEST(ScenarioCodec, UnknownLossLabelFailsApplyWithKnownList) {
  std::string error;
  std::optional<std::vector<Scenario>> scenarios =
      ParseScenarioFile(FileFor(TestSpec()), &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  Scenario scenario = scenarios->front();
  scenario.losses = {{SweepLoss{"no-such-loss", LossCase::kNoLoss, {}}, /*by_label=*/true}};
  SweepSpec applied = TestSpec();
  EXPECT_FALSE(ApplyScenario(scenario, applied, &error));
  EXPECT_NE(error.find("no-such-loss"), std::string::npos) << error;
  EXPECT_NE(error.find("custom-loss"), std::string::npos) << error;
  EXPECT_NE(error.find("first-server-flight-tail"), std::string::npos) << error;
}

/// TestSpec's scenario file with its "losses" axis replaced by `losses`.
std::string WithLosses(const std::string& losses) {
  const std::string file = FileFor(TestSpec());
  const std::size_t begin = file.find("\"losses\": [");
  return file.substr(0, begin) + "\"losses\": " + losses + ",\n" +
         file.substr(file.find("      \"variants\"", begin));
}

/// Parses `file` and applies it to a fresh TestSpec (nullopt on error).
std::optional<SweepSpec> Applied(const std::string& file, std::string& error) {
  const std::optional<std::vector<Scenario>> scenarios = ParseScenarioFile(file, &error);
  SweepSpec applied = TestSpec();
  if (!scenarios || !ApplyScenario(scenarios->front(), applied, &error)) return std::nullopt;
  return applied;
}

TEST(ScenarioCodec, LegacyLossLabelsLoadAsTheirStructuralForm) {
  // Live-spec labels first ("custom-loss" takes the live entry's drops),
  // then flight names.
  std::string error;
  const std::optional<SweepSpec> legacy = Applied(
      WithLosses(R"(["none", "first-server-flight-tail", "second-client-flight", "custom-loss"])"),
      error);
  ASSERT_TRUE(legacy.has_value()) << error;
  const std::optional<SweepSpec> structural = Applied(
      WithLosses(R"([{"label": "none"},
                     {"label": "first-server-flight-tail", "flight": "first-server-flight-tail"},
                     {"label": "second-client-flight", "flight": "second-client-flight"},
                     {"label": "custom-loss", "loss": {"down": {"drop": [2]}}}])"),
      error);
  ASSERT_TRUE(structural.has_value()) << error;
  EXPECT_EQ(FileFor(*legacy), FileFor(*structural));
  EXPECT_EQ(ScenarioHash(*legacy), ScenarioHash(*structural));
}

TEST(ScenarioCodec, StructuralLossesRoundTripToCanonicalBytes) {
  // Unsorted, duplicated drops and "both" parse to the canonical form; the
  // base "loss" field takes the same codec; writing a parse is a fixed point.
  std::string error;
  const std::optional<SweepSpec> applied = Applied(
      WithLosses(R"([{"loss": {"both": {"bernoulli": {"rate": 0.05}, "drop": [4, 2, 4]}},
                      "flight": "second-client-flight", "label": "mixed"}])"),
      error);
  ASSERT_TRUE(applied.has_value()) << error;
  const std::string canonical = FileFor(*applied);
  EXPECT_NE(canonical.find(R"({"label": "mixed", "flight": "second-client-flight", "loss": )"
                           R"({"up": {"drop": [2, 4], "bernoulli": {"rate": 0.05}}, )"
                           R"("down": {"drop": [2, 4], "bernoulli": {"rate": 0.05}}}})"),
            std::string::npos)
      << canonical;
  EXPECT_NE(canonical.find(R"("loss": {"up": {"bernoulli": {"rate": 0.01}}})"),
            std::string::npos);
  const std::optional<SweepSpec> again = Applied(canonical, error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(FileFor(*again), canonical);
}

TEST(ScenarioCodec, BadLossEntriesRejectedWithTheirPath) {
  const std::pair<std::string, std::string> cases[] = {
      {R"([{"label": "x", "loss": {"down": {"drop": [0]}}}])", "losses[0].loss: down.drop[0]"},
      {R"([{"label": "x", "loss": {"down": {"drop": [2, -1]}}}])", "losses[0].loss: down.drop[1]"},
      {R"([{"label": "x", "loss": {"down": {"drop": [1.5]}}}])", "losses[0].loss: down.drop[0]"},
      {R"([{"label": "x", "loss": {"down": {"drop": 3}}}])", "losses[0].loss: down.drop: "},
      {R"([{"flight": "none"}])", "losses[0]: misses its 'label'"},
      {R"([{"label": "x", "flight": "third"}])", "losses[0].flight: unknown flight"},
      {R"([7])", "losses[0]: expected an object"},
  };
  for (const auto& [losses, path] : cases) {
    std::string error;
    EXPECT_FALSE(ParseScenarioFile(WithLosses(losses), &error).has_value()) << losses;
    EXPECT_NE(error.find("scenarios[0].axes." + path), std::string::npos) << error;
  }
  std::string error;
  EXPECT_FALSE(ParseScenarioFile(Replace(FileFor(TestSpec()), R"("bernoulli": {"rate": 0.01})",
                                         R"("drop": [0])"),
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("scenarios[0].base.loss: up.drop[0]"), std::string::npos) << error;
}

TEST(ScenarioCodec, UnknownVariantFailsApply) {
  std::string error;
  std::optional<std::vector<Scenario>> scenarios =
      ParseScenarioFile(FileFor(TestSpec()), &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  Scenario scenario = scenarios->front();
  scenario.variants = {"tuned", "base", "mystery"};
  SweepSpec applied = TestSpec();
  EXPECT_FALSE(ApplyScenario(scenario, applied, &error));
  EXPECT_NE(error.find("mystery"), std::string::npos) << error;

  scenario.variants = {"base", "tuned"};
  ASSERT_TRUE(ApplyScenario(scenario, applied, &error)) << error;
  ASSERT_EQ(applied.axes.variants.size(), 2u);
  EXPECT_FALSE(static_cast<bool>(applied.axes.variants[0].mutate));  // "base" no-op
}

TEST(ScenarioCodec, UnknownMetricNeedsACustomRunner) {
  std::string error;
  std::optional<std::vector<Scenario>> scenarios =
      ParseScenarioFile(FileFor(TestSpec()), &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  Scenario scenario = scenarios->front();
  scenario.metrics = {{"invented", MetricMode::kSummary, true}};

  SweepSpec with_runner = TestSpec();
  ASSERT_TRUE(ApplyScenario(scenario, with_runner, &error)) << error;

  SweepSpec without_runner = TestSpec();
  without_runner.runner = nullptr;
  EXPECT_FALSE(ApplyScenario(scenario, without_runner, &error));
  EXPECT_NE(error.find("invented"), std::string::npos) << error;
  EXPECT_NE(error.find("ttfb_ms"), std::string::npos) << error;

  // The builtin extractors serve the default runner.
  scenario.metrics = {{"response_ttfb_ms", MetricMode::kSummary, true}};
  ASSERT_TRUE(ApplyScenario(scenario, without_runner, &error)) << error;
  ASSERT_EQ(without_runner.metrics.size(), 1u);
  EXPECT_TRUE(static_cast<bool>(without_runner.metrics[0].extract));
}

TEST(ScenarioCodec, WrongSweepNameFailsApply) {
  std::string error;
  std::optional<std::vector<Scenario>> scenarios =
      ParseScenarioFile(FileFor(TestSpec()), &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  SweepSpec other = TestSpec();
  other.name = "different";
  EXPECT_FALSE(ApplyScenario(scenarios->front(), other, &error));
  EXPECT_NE(error.find("different"), std::string::npos) << error;
}

TEST(ScenarioHashing, DataChangesChangeTheHash) {
  const SweepSpec spec = TestSpec();
  const std::uint64_t base = ScenarioHash(spec);
  EXPECT_EQ(ScenarioHash(TestSpec()), base) << "hash must be deterministic";

  SweepSpec axis = TestSpec();
  axis.axes.rtts.push_back(sim::Millis(50));
  EXPECT_NE(ScenarioHash(axis), base);

  SweepSpec config = TestSpec();
  config.base.bandwidth_bps = 5e6;
  EXPECT_NE(ScenarioHash(config), base);

  // Execution control is not data: shard layout must not move the hash.
  SweepSpec sharded = TestSpec();
  sharded.shard.index = 1;
  sharded.shard.count = 4;
  EXPECT_EQ(ScenarioHash(sharded), base);
}

TEST(ScenarioHashing, RunSweepStampsTheHashAndMergeEnforcesIt) {
  SweepSpec spec = TestSpec();
  spec.shard.index = 0;
  spec.shard.count = 2;
  const SweepResult left = RunSweep(spec);
  EXPECT_EQ(left.spec_hash, ScenarioHash(spec));

  // The sibling shard of a *different* grid definition: same name, same
  // grid shape, same seeds — only the content-hash can tell them apart.
  SweepSpec other = TestSpec();
  other.base.bandwidth_bps = 5e6;
  other.shard.index = 1;
  other.shard.count = 2;
  const SweepResult right = RunSweep(other);

  std::string error;
  EXPECT_FALSE(MergeSweepResults({left, right}, &error).has_value());
  EXPECT_NE(error.find("content-hash mismatch"), std::string::npos) << error;

  // Matching definitions merge fine.
  SweepSpec sibling = TestSpec();
  sibling.shard.index = 1;
  sibling.shard.count = 2;
  const SweepResult ok = RunSweep(sibling);
  std::optional<SweepResult> merged = MergeSweepResults({left, ok}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->spec_hash, left.spec_hash);
}

TEST(ScenarioHashing, PartialFilesCarryTheHash) {
  SweepSpec spec = TestSpec();
  spec.shard.index = 0;
  spec.shard.count = 2;
  const SweepResult result = RunSweep(spec);
  ASSERT_NE(result.spec_hash, 0u);
  std::string error;
  const std::optional<SweepResult> parsed =
      ParseSweepPartialJson(SweepPartialJson(result), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->spec_hash, result.spec_hash);
}

TEST(ScenarioSchema, MarkdownListsEveryDescriptorField) {
  const std::string markdown = ScenarioSchemaMarkdown();
  for (const ConfigFieldSpec& field : ConfigFields()) {
    EXPECT_NE(markdown.find("`" + field.name + "`"), std::string::npos) << field.name;
  }
  EXPECT_NE(markdown.find("| field | type | default | description |"), std::string::npos);
}

}  // namespace
}  // namespace quicer::core
