// Robustness sweeps for every log format: random engine-generated logs must
// round-trip through text, binary and XES byte-for-byte in content, and the
// parsers must reject arbitrary garbage gracefully (error status, never a
// crash or a silently wrong log).

#include <gtest/gtest.h>

#include "log/binary_log.h"
#include "log/reader.h"
#include "log/streaming_reader.h"
#include "log/writer.h"
#include "log/xes.h"
#include "synth/random_dag.h"
#include "temp_file.h"
#include "util/random.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

/// Random definition -> engine log with outputs and (optionally) durations.
EventLog RandomEngineLog(uint64_t seed, bool durations) {
  RandomDagOptions dag_options;
  dag_options.num_activities = 3 + static_cast<int32_t>(seed % 10);
  dag_options.edge_density = 0.4;
  dag_options.seed = seed;
  ProcessDefinition def(GenerateRandomDag(dag_options));
  Rng rng(seed);
  for (NodeId v = 0; v < def.num_activities(); ++v) {
    def.SetOutputSpec(
        v, OutputSpec::Uniform(static_cast<int>(rng.Uniform(3)), -50, 50));
  }
  EngineOptions options;
  if (durations) {
    options.num_agents = 2;
    options.min_duration = 1;
    options.max_duration = 7;
  }
  Engine engine(&def, options);
  return engine.GenerateLog(20, seed + 1).ValueOrDie();
}

void ExpectSameContent(const EventLog& a, const EventLog& b,
                       bool compare_names_by_value) {
  ASSERT_EQ(a.num_executions(), b.num_executions());
  for (size_t i = 0; i < a.num_executions(); ++i) {
    // Match executions by instance name (containers may reorder).
    const Execution* match = nullptr;
    for (size_t j = 0; j < b.num_executions(); ++j) {
      if (b.execution(j).name() == a.execution(i).name()) {
        match = &b.execution(j);
        break;
      }
    }
    ASSERT_NE(match, nullptr) << a.execution(i).name();
    const Execution& x = a.execution(i);
    ASSERT_EQ(x.size(), match->size());
    for (size_t k = 0; k < x.size(); ++k) {
      if (compare_names_by_value) {
        EXPECT_EQ(a.dictionary().Name(x[k].activity),
                  b.dictionary().Name((*match)[k].activity));
      }
      EXPECT_EQ(x[k].start, (*match)[k].start);
      EXPECT_EQ(x[k].end, (*match)[k].end);
      EXPECT_EQ(x[k].output, (*match)[k].output);
    }
  }
}

class FormatRoundTripTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(FormatRoundTripTest, TextRoundTrip) {
  auto [seed, durations] = GetParam();
  EventLog log = RandomEngineLog(seed, durations);
  auto back = LogReader::ReadString(LogWriter::ToString(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameContent(log, *back, true);
}

TEST_P(FormatRoundTripTest, BinaryRoundTrip) {
  auto [seed, durations] = GetParam();
  EventLog log = RandomEngineLog(seed, durations);
  auto back = DecodeBinaryLog(EncodeBinaryLog(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameContent(log, *back, true);
}

TEST_P(FormatRoundTripTest, XesRoundTrip) {
  auto [seed, durations] = GetParam();
  EventLog log = RandomEngineLog(seed, durations);
  auto back = FromXes(ToXes(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameContent(log, *back, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTripTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u,
                                                              4u, 5u),
                                            ::testing::Bool()));

TEST(FormatGarbageTest, TextParserSurvivesGarbage) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage;
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Uniform(96) + 32);
    }
    // Must not crash; may parse (if it accidentally looks like a log) or
    // fail with a clean status. The streaming scan must agree.
    auto result = LogReader::ReadString(garbage);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
    TempFile file(garbage);
    auto streamed = StreamLogFile(
        file.path(), [](const Execution&, const ActivityDictionary&) {
          return Status::OK();
        });
    ASSERT_EQ(streamed.ok(), result.ok()) << garbage;
    EXPECT_EQ(streamed.status().message(), result.status().message())
        << garbage;
  }
}

TEST(FormatGarbageTest, BinaryParserSurvivesGarbage) {
  Rng rng(78);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage = "PMLG";  // valid magic, garbage body
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.NextUint64() & 0xff);
    }
    EXPECT_FALSE(DecodeBinaryLog(garbage).ok());  // checksum rejects
  }
}

TEST(FormatGarbageTest, XesParserSurvivesGarbage) {
  Rng rng(79);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage = "<log><trace>";
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Uniform(96) + 32);
    }
    auto result = FromXes(garbage);  // must not crash
    (void)result;
  }
}

TEST(FormatSizesTest, BinarySmallestXesLargest) {
  EventLog log = RandomEngineLog(9, true);
  size_t text = LogWriter::ToString(log).size();
  size_t binary = EncodeBinaryLog(log).size();
  size_t xes = ToXes(log).size();
  EXPECT_LT(binary, text);
  EXPECT_LT(text, xes);
}

}  // namespace
}  // namespace procmine
