// Ingestion path equivalence.
//
// Every text ingestion path runs one tokenizer (ScanEventLine) and one
// START/END pairing step (AssembleExecution), so for EVERY input —
// well-formed engine logs, paper-style examples, and malformed text — the
// fused parser (LogReader::ParseText / ReadFile, any thread count, any
// shard granularity) matches the single-shard parse (ReadString):
// identical dictionaries (names AND id order), identical executions,
// identical serialized bytes, and identical error messages (MalformedCorpus
// pins each one to the seed tokenizer's wording). The streaming
// scan (StreamLogFile) must accept, reject, report and quarantine exactly
// what ParseText does on contiguous input.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "log/binary_log.h"
#include "log/reader.h"
#include "log/streaming_reader.h"
#include "log/writer.h"
#include "synth/noise_injector.h"
#include "synth/random_dag.h"
#include "temp_file.h"
#include "util/random.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

/// Random definition -> engine log, same generator family as
/// format_fuzz_test: outputs, optional durations/overlap via agents.
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

/// The corpus: serialized text logs covering the format's corners.
std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  // Hand-written cases: comments, blank lines, CRLF, no trailing newline,
  // interleaved instances, repeated activities, instantaneous events,
  // outputs, whitespace runs, and instance names that sort differently
  // than they appear.
  corpus.push_back("");
  corpus.push_back("# only a comment\n\n  \n");
  corpus.push_back(
      "zeta A START 0\nzeta A END 1\n"
      "alpha B START 0\nalpha B END 2 7 -3\n");
  corpus.push_back(
      "c1 A START 0\r\nc1 A END 0\r\nc1 B START 1\r\nc1 B END 3 42\r\n");
  corpus.push_back("solo    Work   START   5\nsolo Work END 9");  // no \n
  corpus.push_back(
      "x A START 0\ny A START 0\nx A END 1\ny A END 2 1\n"
      "x B START 2\ny B START 3\nx B END 4\ny B END 5\n");
  corpus.push_back(
      "loop A START 0\nloop A END 1\nloop A START 2\nloop A END 3\n"
      "loop B START 4\nloop B END 5\nloop A START 6\nloop A END 7\n");
  // Overlapping activities (END after a later START).
  corpus.push_back(
      "ov A START 0\nov B START 1\nov A END 3\nov B END 4\n");
  // Engine-generated sweeps, with and without durations.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    corpus.push_back(LogWriter::ToString(RandomEngineLog(seed, false)));
    corpus.push_back(LogWriter::ToString(RandomEngineLog(seed, true)));
  }
  return corpus;
}

/// A malformed input and the strict error every text path must report: the
/// seed tokenizer's wording, pinned here so no path can drift from it.
struct Malformed {
  std::string text;
  std::string error;
};

std::vector<Malformed> MalformedCorpus() {
  return {
      {"case1 A START\n", "line 1: expected at least 4 fields, got 3"},
      {"case1 A MIDDLE 5\n",
       "line 1: event type must be START or END, got 'MIDDLE'"},
      {"case1 A START late\n",
       "line 1: bad timestamp: malformed integer: 'late'"},
      {"case1 A START 0 99\n",
       "line 1: output parameters are only valid on END events"},
      {"c A END 1 notanint\n", "line 1: bad output parameter 'notanint'"},
      {"c A START 0\nc A END x\n",
       "line 2: bad timestamp: malformed integer: 'x'"},
      {"c A END 5\n", "execution 'c': END without START for activity 'A'"},
      {"c A START 5\n", "execution 'c': START without END for activity 'A'"},
      {"c A START 1\nc A START 2\nc A END 3\n",  // one START left open
       "execution 'c': START without END for activity 'A'"},
      {"ok A START 0\nok A END 1\nbad B END 9\n",
       "execution 'bad': END without START for activity 'B'"},
      {"# header\n\nok A START 0\nok A END 1\nshort line\n",
       "line 5: expected at least 4 fields, got 2"},
      {"a A START 0\na A END 1\nb B START 99999999999999999999\n",
       "line 3: bad timestamp: integer out of range: "
       "'99999999999999999999'"},
      {"m X START 0\nm X END 1\nm Y START 2\nm Z END 3\nm Y END 4\n",
       "execution 'm': END without START for activity 'Z'"},
  };
}

void ExpectIdenticalLogs(const EventLog& a, const EventLog& b,
                         const std::string& context) {
  // Dictionaries must match exactly — same names in the same id order.
  ASSERT_EQ(a.dictionary().names(), b.dictionary().names()) << context;
  ASSERT_EQ(a.num_executions(), b.num_executions()) << context;
  for (size_t i = 0; i < a.num_executions(); ++i) {
    const Execution& x = a.execution(i);
    const Execution& y = b.execution(i);
    ASSERT_EQ(x.name(), y.name()) << context;
    ASSERT_EQ(x.size(), y.size()) << context << " exec " << x.name();
    for (size_t k = 0; k < x.size(); ++k) {
      EXPECT_EQ(x[k].activity, y[k].activity) << context;
      EXPECT_EQ(x[k].start, y[k].start) << context;
      EXPECT_EQ(x[k].end, y[k].end) << context;
      EXPECT_EQ(x[k].output, y[k].output) << context;
    }
  }
  // Byte-level seal: identical text and binary serializations.
  EXPECT_EQ(LogWriter::ToString(a), LogWriter::ToString(b)) << context;
  EXPECT_EQ(EncodeBinaryLog(a), EncodeBinaryLog(b)) << context;
}

LogParseOptions ShardedOptions(int threads) {
  LogParseOptions options;
  options.num_threads = threads;
  // Force real multi-shard parses even on small corpora.
  options.min_shard_bytes = 1;
  return options;
}

TEST(IngestEquivalenceTest, ParseTextMatchesLegacyOnCorpus) {
  int case_no = 0;
  for (const std::string& text : Corpus()) {
    std::string context = "corpus case " + std::to_string(case_no++);
    auto legacy = LogReader::ReadString(text);
    ASSERT_TRUE(legacy.ok()) << context << ": " << legacy.status().ToString();
    for (int threads : {1, 2, 8}) {
      auto fused = LogReader::ParseText(text, ShardedOptions(threads));
      ASSERT_TRUE(fused.ok())
          << context << ": " << fused.status().ToString();
      ExpectIdenticalLogs(*legacy, *fused,
                          context + " threads=" + std::to_string(threads));
    }
  }
}

TEST(IngestEquivalenceTest, IdenticalErrorsOnMalformedInput) {
  int case_no = 0;
  for (const Malformed& bad : MalformedCorpus()) {
    std::string context = "malformed case " + std::to_string(case_no++);
    auto legacy = LogReader::ReadString(bad.text);
    ASSERT_FALSE(legacy.ok()) << context;
    EXPECT_TRUE(legacy.status().IsInvalidArgument()) << context;
    EXPECT_EQ(legacy.status().message(), bad.error) << context;
    for (int threads : {1, 2, 8}) {
      auto fused = LogReader::ParseText(bad.text, ShardedOptions(threads));
      ASSERT_FALSE(fused.ok()) << context;
      EXPECT_EQ(legacy.status().code(), fused.status().code()) << context;
      EXPECT_EQ(legacy.status().message(), fused.status().message())
          << context << " threads=" << threads;
    }
  }
}

TEST(IngestEquivalenceTest, ReadFileMatchesReadString) {
  std::string path = ::testing::TempDir() + "ingest_equivalence.log";
  for (uint64_t seed : {11u, 12u}) {
    std::string text = LogWriter::ToString(RandomEngineLog(seed, true));
    {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.is_open());
      out << text;
    }
    auto legacy = LogReader::ReadString(text);
    ASSERT_TRUE(legacy.ok());
    for (int threads : {1, 2, 8}) {
      auto from_file = LogReader::ReadFile(path, ShardedOptions(threads));
      ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
      ExpectIdenticalLogs(*legacy, *from_file,
                          "file seed " + std::to_string(seed));
    }
  }
  std::remove(path.c_str());
}

TEST(IngestEquivalenceTest, ShardCountsDoNotChangeTheResult) {
  // Same input at many shard granularities: line-boundary splitting must
  // never split or duplicate an event.
  std::string text = LogWriter::ToString(RandomEngineLog(21, true));
  auto reference = LogReader::ParseText(text);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 3, 5, 16}) {
    for (size_t min_bytes : {size_t{1}, size_t{64}, size_t{4096}}) {
      LogParseOptions options;
      options.num_threads = threads;
      options.min_shard_bytes = min_bytes;
      auto sharded = LogReader::ParseText(text, options);
      ASSERT_TRUE(sharded.ok());
      ExpectIdenticalLogs(
          *reference, *sharded,
          "threads=" + std::to_string(threads) + " min_bytes=" +
              std::to_string(min_bytes));
    }
  }
}

/// Executions delivered by a streaming scan, with their own dictionary's
/// names resolved, so they compare by name against a parsed EventLog.
struct Streamed {
  Result<StreamingStats> stats = StreamingStats{};
  std::vector<std::string> names;     // in delivery order
  std::vector<std::string> rendered;  // one line per execution
};

/// One execution as text with activity names, independent of dictionary ids.
std::string RenderExecution(const Execution& exec,
                            const ActivityDictionary& dict) {
  std::string out = exec.name() + ":";
  for (const ActivityInstance& inst : exec.instances()) {
    out += " " + dict.Name(inst.activity) + "[" + std::to_string(inst.start) +
           "," + std::to_string(inst.end);
    for (int64_t v : inst.output) out += " " + std::to_string(v);
    out += "]";
  }
  return out;
}

Streamed StreamText(const std::string& text, const StreamOptions& options) {
  TempFile file(text);
  Streamed out;
  out.stats = StreamLogFile(
      file.path(),
      [&out](const Execution& e, const ActivityDictionary& dict) {
        out.names.push_back(e.name());
        out.rendered.push_back(RenderExecution(e, dict));
        return Status::OK();
      },
      options);
  return out;
}

/// ParseText's executions rendered like Streamed::rendered, sorted by name.
std::vector<std::string> RenderLog(const EventLog& log) {
  std::vector<std::string> out;
  for (const Execution& e : log.executions()) {
    out.push_back(RenderExecution(e, log.dictionary()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(IngestEquivalenceTest, StreamingFileMatchesInMemoryStreaming) {
  // StreamLogFile delivers, execution by execution, exactly the executions
  // ParseText assembles from the same bytes.
  EventLog log = RandomEngineLog(31, true);
  std::string text = LogWriter::ToString(log);
  auto parsed = LogReader::ParseText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Streamed streamed = StreamText(text, StreamOptions{});
  ASSERT_TRUE(streamed.stats.ok()) << streamed.stats.status().ToString();
  std::vector<std::string> rendered = streamed.rendered;
  std::sort(rendered.begin(), rendered.end());
  EXPECT_EQ(rendered, RenderLog(*parsed));
  EXPECT_EQ(streamed.stats->executions,
            static_cast<int64_t>(parsed->num_executions()));
  EXPECT_EQ(streamed.stats->events, 2 * parsed->TotalInstances());
}

/// The malformed corpus plus the inputs on which the streaming scan once
/// disagreed with ParseText: an output vector on a START event, an END line
/// before its (earlier-timestamped) START line, and a bad output parameter
/// whose error text must carry the line number.
std::vector<std::string> StreamParityCorpus() {
  std::vector<std::string> corpus;
  for (const Malformed& bad : MalformedCorpus()) corpus.push_back(bad.text);
  corpus.push_back("c1 A START 0 7\nc1 A END 1\n");
  corpus.push_back("c1 A END 5\nc1 A START 1\nc2 B START 0\nc2 B END 2\n");
  corpus.push_back(
      "c1 A START 0\nc1 A END 1\nc1 B START 2\nc1 B END 3 q\n"
      "c2 A START 0\nc2 A END 1\n");
  return corpus;
}

TEST(IngestEquivalenceTest, StreamingMatchesParseTextUnderEveryPolicy) {
  int case_no = 0;
  for (const std::string& text : StreamParityCorpus()) {
    for (RecoveryPolicy policy :
         {RecoveryPolicy::kStrict, RecoveryPolicy::kSkip,
          RecoveryPolicy::kQuarantine}) {
      std::string context = "parity case " + std::to_string(case_no) + " " +
                            std::string(RecoveryPolicyName(policy)) +
                            "\ninput:\n" + text;
      IngestionReport parse_report;
      LogParseOptions parse_options;
      parse_options.recovery = policy;
      parse_options.report = &parse_report;
      auto parsed = LogReader::ParseText(text, parse_options);

      IngestionReport stream_report;
      StreamOptions stream_options;
      stream_options.recovery = policy;
      stream_options.report = &stream_report;
      Streamed streamed = StreamText(text, stream_options);

      ASSERT_EQ(parsed.ok(), streamed.stats.ok())
          << context << "\nParseText: " << parsed.status().ToString()
          << "\nStreamLogFile: " << streamed.stats.status().ToString();
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), streamed.stats.status().code())
            << context;
        EXPECT_EQ(parsed.status().message(), streamed.stats.status().message())
            << context;
        continue;
      }
      std::vector<std::string> rendered = streamed.rendered;
      std::sort(rendered.begin(), rendered.end());
      EXPECT_EQ(rendered, RenderLog(*parsed)) << context;
      EXPECT_EQ(stream_report.policy, parse_report.policy) << context;
      EXPECT_EQ(stream_report.lines_total, parse_report.lines_total)
          << context;
      EXPECT_EQ(stream_report.events_parsed, parse_report.events_parsed)
          << context;
      EXPECT_EQ(stream_report.lines_skipped, parse_report.lines_skipped)
          << context;
      EXPECT_EQ(stream_report.executions_dropped,
                parse_report.executions_dropped)
          << context;
      EXPECT_EQ(stream_report.error_classes, parse_report.error_classes)
          << context;
      // The sidecar bytes cover every quarantine record field and order.
      EXPECT_EQ(stream_report.QuarantineText(), parse_report.QuarantineText())
          << context;
    }
    ++case_no;
  }
}

TEST(IngestEquivalenceTest, NoisyLogsStayEquivalent) {
  // Noise-injected logs exercise unusual shapes (dropped/duplicated
  // instances) while staying parseable.
  for (uint64_t seed : {41u, 42u}) {
    EventLog clean = RandomEngineLog(seed, false);
    NoiseOptions noise;
    noise.swap_rate = 0.1;
    noise.insert_rate = 0.2;
    noise.delete_rate = 0.2;
    noise.seed = seed;
    EventLog noisy = InjectNoise(clean, noise);
    std::string text = LogWriter::ToString(noisy);
    auto legacy = LogReader::ReadString(text);
    ASSERT_TRUE(legacy.ok());
    for (int threads : {1, 2, 8}) {
      auto fused = LogReader::ParseText(text, ShardedOptions(threads));
      ASSERT_TRUE(fused.ok());
      ExpectIdenticalLogs(*legacy, *fused, "noisy seed " +
                          std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace procmine
