// `procmine explain` renders the paper's step-by-step traces (Examples 6-7,
// Figures 3-4) from the provenance the real miner records. The TraceTest
// cases pin the traces themselves; the ExplainTest cases pin what only the
// driver-backed rendering has: every algorithm, and identical output at any
// thread count and chunk size.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mine/driver.h"
#include "mine/miner.h"
#include "mine/provenance.h"
#include "synth/log_generator.h"
#include "synth/noise_injector.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

// One `explain` run: ProcessMiner with a recorder attached.
struct Explained {
  ProvenanceRecorder recorder;
  ProcessGraph model;
};

std::unique_ptr<Explained> Explain(const EventLog& log,
                                   MinerOptions options = {}) {
  auto run = std::make_unique<Explained>();
  options.provenance = &run->recorder;
  auto mined = ProcessMiner(options).Mine(log);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  if (mined.ok()) run->model = std::move(*mined);
  return run;
}

MinerOptions General() {
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  return options;
}

std::vector<Edge> EdgesWith(const ProvenanceRecorder& recorder,
                            DropReason reason) {
  std::vector<Edge> out;
  for (const EdgeProvenance& p : recorder.Edges()) {
    if (p.reason == reason) out.push_back(p.edge);
  }
  return out;
}

std::string Why(const Explained& run, const EventLog& log,
                const std::string& from, const std::string& to) {
  return ExplainProvenanceEdge(run.recorder, log,
                               *log.dictionary().Find(from),
                               *log.dictionary().Find(to));
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(TraceTest, MatchesUntracedMiner) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto run = Explain(log);
  auto plain = ProcessMiner().Mine(log);
  ASSERT_TRUE(plain.ok());
  DirectedGraph kept(log.num_activities());
  for (const Edge& e : EdgesWith(run->recorder, DropReason::kKept)) {
    kept.AddEdge(e.from, e.to);
  }
  EXPECT_TRUE(kept == plain->graph());
  EXPECT_TRUE(run->model.graph() == plain->graph());
}

TEST(TraceTest, Example6NarrativeTwoCycles) {
  // Example 6: the dashed edges removed at step 3 are the B/C and B/D
  // pairs. Every execution holds every activity, so kAuto runs Algorithm 1.
  EventLog log = EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  auto run = Explain(log);
  EXPECT_EQ(run->recorder.algorithm(), MinerAlgorithm::kSpecialDag);
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  ActivityId d = *log.dictionary().Find("D");
  std::vector<Edge> two_cycle =
      EdgesWith(run->recorder, DropReason::kTwoCycle);
  EXPECT_EQ(two_cycle, (std::vector<Edge>{{b, c}, {b, d}, {c, b}, {d, b}}));
  EXPECT_TRUE(Contains(NarrateProvenance(run->recorder, log),
                       "step 3: 2 activity pairs observed in both orders "
                       "(independent): {B, C} {B, D}\n"));
  // Under Algorithm 2 the same log has no SCC to dissolve.
  auto general = Explain(log, General());
  EXPECT_TRUE(Contains(NarrateProvenance(general->recorder, log),
                       "step 4: 0 strongly connected components dissolved:\n"));
}

TEST(TraceTest, Example7NarrativeScc) {
  // Example 7: "There is one strongly connected component, consisting of
  // vertices C, D, E."
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto run = Explain(log);
  EXPECT_TRUE(EdgesWith(run->recorder, DropReason::kTwoCycle).empty());
  std::string narration = NarrateProvenance(run->recorder, log);
  EXPECT_TRUE(Contains(narration, "step 3: 0 activity pairs")) << narration;
  EXPECT_TRUE(Contains(narration,
                       "step 4: 1 strongly connected components dissolved: "
                       "{C, D, E}\n"))
      << narration;
}

TEST(TraceTest, NarrationMentionsEverySection) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto run = Explain(log);
  std::string narration = NarrateProvenance(run->recorder, log);
  EXPECT_TRUE(Contains(narration, "step 2"));
  EXPECT_TRUE(Contains(narration, "step 3"));
  EXPECT_TRUE(Contains(narration, "step 4"));
  EXPECT_TRUE(Contains(narration, "{C, D, E}"));
  EXPECT_TRUE(Contains(narration, "steps 5-6"));
}

TEST(TraceTest, ExplainKeptEdge) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  auto run = Explain(log);
  std::string why = Why(*run, log, "A", "C");
  EXPECT_TRUE(Contains(why, "is in the model")) << why;
  EXPECT_TRUE(Contains(why, "observed in 2 executions")) << why;
  // Only the AC execution needs the direct edge.
  EXPECT_TRUE(Contains(why, "required by 1 execution(s) incl. exec_1\n"))
      << why;
}

TEST(TraceTest, ExplainNeverObserved) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  auto run = Explain(log);
  std::string why = Why(*run, log, "C", "A");
  EXPECT_TRUE(Contains(why, "never observed")) << why;
}

TEST(TraceTest, ExplainTwoCycleDrop) {
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  auto run = Explain(log);
  std::string why = Why(*run, log, "A", "B");
  EXPECT_TRUE(Contains(why, "step 3")) << why;
  EXPECT_TRUE(Contains(why, "independent")) << why;
}

TEST(TraceTest, ExplainSccDrop) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto run = Explain(log);
  std::string why = Why(*run, log, "C", "D");
  EXPECT_TRUE(Contains(why, "step 4")) << why;
  EXPECT_TRUE(Contains(why, "strongly connected")) << why;
}

TEST(TraceTest, ExplainUnmarkedDrop) {
  // A->C exists in the dependency graph but B is always between.
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC"});
  auto run = Explain(log, General());
  std::string why = Why(*run, log, "A", "C");
  EXPECT_TRUE(Contains(why, "step 6")) << why;
  EXPECT_TRUE(Contains(why, "longer path")) << why;
  // Algorithm 1 (kAuto here) drops it in its one whole-graph reduction.
  auto special = Explain(log);
  why = Why(*special, log, "A", "C");
  EXPECT_TRUE(Contains(why, "step 4: the transitive reduction of the whole "
                            "graph"))
      << why;
  EXPECT_TRUE(Contains(why, "longer path")) << why;
}

TEST(TraceTest, ExplainThresholdDrop) {
  std::vector<std::string> execs(9, "ABC");
  execs.push_back("ACB");
  EventLog log = EventLog::FromCompactStrings(execs);
  MinerOptions options;
  options.noise_threshold = 2;
  auto run = Explain(log, options);
  std::string why = Why(*run, log, "C", "B");
  EXPECT_TRUE(Contains(why, "noise threshold")) << why;
  EXPECT_EQ(EdgesWith(run->recorder, DropReason::kBelowThreshold).size(), 1u);
}

TEST(TraceTest, MarksRecordPerExecutionRequirements) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  auto run = Explain(log);
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  const EdgeEvidenceMap& required = run->recorder.required_by();
  ASSERT_EQ(required.size(), 3u);
  // The AC execution (index 1) alone marks the direct A->C edge.
  const EdgeEvidence& ac = required.at(PackEdge(a, c));
  EXPECT_EQ(ac.support, 1);
  EXPECT_EQ(ac.first_witness, 1);
  EXPECT_EQ(ac.last_witness, 1);
  for (uint64_t key : {PackEdge(a, b), PackEdge(b, c)}) {
    const EdgeEvidence& e = required.at(key);
    EXPECT_EQ(e.support, 1);
    EXPECT_EQ(e.first_witness, 0);
    EXPECT_EQ(e.last_witness, 0);
  }
}

TEST(TraceTest, RejectsRepeatsAndEmpty) {
  ProvenanceRecorder recorder;
  MinerOptions options;
  options.provenance = &recorder;
  EXPECT_FALSE(ProcessMiner(options).Mine(EventLog()).ok());
  // A repeating log is explained under Algorithm 3, in labeled names.
  EventLog cyclic = EventLog::FromCompactStrings({"ABAB"});
  auto run = Explain(cyclic);
  EXPECT_EQ(run->recorder.algorithm(), MinerAlgorithm::kCyclic);
  std::string narration = NarrateProvenance(run->recorder, cyclic);
  EXPECT_TRUE(Contains(narration, "kept 3 edges, removed 3: A#1 -> A#2 "
                                  "A#1 -> B#2 B#1 -> B#2\n"))
      << narration;
  EXPECT_TRUE(Contains(narration, "step 8: merging the occurrence labels "
                                  "back leaves 2 edges"))
      << narration;
}

TEST(ExplainTest, Algorithm1RequiresEveryExecution) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC", "ABC"});
  auto run = Explain(log);
  EXPECT_EQ(run->recorder.algorithm(), MinerAlgorithm::kSpecialDag);
  EXPECT_EQ(NarrateProvenance(run->recorder, log),
            "step 2: collected 3 precedence edges over 3 executions\n"
            "step 3: 0 activity pairs observed in both orders "
            "(independent):\n"
            "dependency graph: 3 edges\n"
            "step 4: the transitive reduction of the whole graph kept 2 "
            "edges, removed 1: A -> C\n");
  EXPECT_EQ(Why(*run, log, "A", "B"),
            "edge A -> B is in the model: observed in 3 executions, "
            "required by 3 execution(s) incl. exec_0 exec_2\n");
}

TEST(ExplainTest, Algorithm3ExplainsEveryLabeledCandidate) {
  // Review repeats after a rework loop, as in examples/logs/loan_review.log.
  EventLog log = EventLog::FromSequences(
      {{"Submit", "Review", "Approve"},
       {"Submit", "Review", "Revise", "Review", "Approve"},
       {"Submit", "Review", "Approve"}});
  auto run = Explain(log);
  ASSERT_EQ(run->recorder.algorithm(), MinerAlgorithm::kCyclic);
  std::string why = Why(*run, log, "Review", "Approve");
  // One line per labeled candidate, in labeled-id order.
  EXPECT_EQ(std::count(why.begin(), why.end(), '\n'), 2) << why;
  EXPECT_LT(why.find("Review#1 -> Approve#1"),
            why.find("Review#2 -> Approve#1"))
      << why;
  EXPECT_TRUE(Contains(why, "Review#2 -> Approve#1 is in the model")) << why;
  // The merged model holds what `mine` prints.
  ActivityId review = *log.dictionary().Find("Review");
  ActivityId approve = *log.dictionary().Find("Approve");
  EXPECT_TRUE(run->model.graph().HasEdge(review, approve));
  EXPECT_TRUE(Contains(Why(*run, log, "Approve", "Submit"), "never observed"));
}

TEST(ExplainTest, OutputIsThreadAndChunkInvariant) {
  RandomDagOptions dag;
  dag.num_activities = 12;
  dag.edge_density = PaperEdgeDensity(dag.num_activities);
  dag.seed = 4;
  ProcessGraph truth = GenerateRandomDag(dag);
  auto clean = GenerateLinearExtensionLog(truth, 300, 8);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  NoiseOptions partial;  // deletions: Algorithm 2
  partial.swap_rate = 0.05;
  partial.delete_rate = 0.3;
  partial.seed = 2;
  NoiseOptions repeating = partial;  // insertions repeat: Algorithm 3
  repeating.insert_rate = 0.2;
  for (const NoiseOptions& noise : {partial, repeating}) {
    EventLog log = InjectNoise(*clean, noise);
    auto render = [&](int threads, size_t chunk) {
      MinerOptions options;
      options.noise_threshold = 2;
      options.num_threads = threads;
      options.chunk_size = chunk;
      auto run = Explain(log, options);
      std::string out = NarrateProvenance(run->recorder, log);
      for (ActivityId a = 0; a < log.num_activities(); ++a) {
        for (ActivityId b = 0; b < log.num_activities(); ++b) {
          out += ExplainProvenanceEdge(run->recorder, log, a, b);
        }
      }
      return out;
    };
    const std::string reference = render(1, 0);
    EXPECT_TRUE(Contains(reference, "required by")) << reference;
    EXPECT_EQ(render(4, 1), reference) << "insert_rate=" << noise.insert_rate;
    EXPECT_EQ(render(4, 3), reference) << "insert_rate=" << noise.insert_rate;
  }
}

}  // namespace
}  // namespace procmine
