// Stability of the canonical state digest (Connection::StateDigest via
// the model checker's scenario Digest): observability must be free of
// protocol side effects. The same transfer schedule must produce the
// identical digest sequence whether or not a qlog tracer is attached —
// otherwise digest pruning in the explorer would depend on
// instrumentation, and replayed counterexamples (which attach a tracer
// via --qlog) would diverge from the recording that produced them.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "harness/explore.h"

namespace mpq::harness {
namespace {

/// Drive a scenario with the greedy schedule (always the first enabled
/// choice) to completion and return the digest after every step.
std::vector<std::uint64_t> GreedyDigests(const ScenarioOptions& options) {
  auto model = MakeQuicScenarioModel(options);
  model->Reset();
  std::vector<std::uint64_t> digests{model->Digest()};
  for (int step = 0; step < 4000; ++step) {
    const std::vector<Choice> enabled = model->Enabled();
    if (enabled.empty()) break;
    model->Execute(enabled.front());
    digests.push_back(model->Digest());
  }
  EXPECT_TRUE(model->GoalReached());
  std::string why;
  EXPECT_TRUE(model->CheckInvariants(&why)) << why;
  return digests;
}

ScenarioOptions TransferScenario() {
  ScenarioOptions options;
  options.name = "transfer";
  options.transfer_bytes = ByteCount{1200};
  return options;
}

TEST(DigestStabilityTest, TracerAttachmentDoesNotPerturbDigests) {
  const std::vector<std::uint64_t> plain = GreedyDigests(TransferScenario());
  ASSERT_GT(plain.size(), 10u);

  ScenarioOptions traced = TransferScenario();
  traced.qlog_path = ::testing::TempDir() + "/digest_stability_qlog.ndjson";
  const std::vector<std::uint64_t> with_tracer = GreedyDigests(traced);
  EXPECT_EQ(plain, with_tracer);

  // The control must not be vacuous: the tracer actually wrote events.
  std::ifstream qlog(traced.qlog_path);
  ASSERT_TRUE(qlog.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(qlog, line)) ++lines;
  EXPECT_GT(lines, 1u);
}

}  // namespace
}  // namespace mpq::harness
