#include "mine/provenance.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <sstream>

#include "graph/algorithms.h"
#include "mine/driver.h"

namespace procmine {

std::string_view ToString(DropReason reason) {
  static constexpr std::string_view kNames[kNumDropReasons] = {
      "kept", "below_threshold", "two_cycle", "intra_scc",
      "transitive_reduction"};
  const size_t index = static_cast<size_t>(reason);
  return index < kNumDropReasons ? kNames[index] : "unknown";
}

void EdgeEvidence::Merge(const EdgeEvidence& other) {
  support += other.support;
  if (first_witness < 0 ||
      (other.first_witness >= 0 && other.first_witness < first_witness)) {
    first_witness = other.first_witness;
  }
  last_witness = std::max(last_witness, other.last_witness);
}

MinerAlgorithm ProvenanceRecorder::algorithm() const {
  return has_base_mapping() ? MinerAlgorithm::kCyclic : algorithm_;
}

void ProvenanceRecorder::MarkDropped(NodeId from, NodeId to,
                                     DropReason reason) {
  dropped_.emplace(PackEdge(from, to), reason);  // first reason wins
}

std::vector<EdgeProvenance> ProvenanceRecorder::Edges() const {
  std::vector<EdgeProvenance> out;
  out.reserve(evidence_.size());
  for (const auto& [key, evidence] : evidence_) {
    EdgeProvenance p;
    p.edge = UnpackEdge(key);
    p.support = evidence.support;
    p.first_witness = evidence.first_witness;
    p.last_witness = evidence.last_witness;
    auto it = dropped_.find(key);
    if (it != dropped_.end()) p.reason = it->second;
    out.push_back(p);
  }
  std::sort(out.begin(), out.end(),
            [](const EdgeProvenance& a, const EdgeProvenance& b) {
              return a.edge < b.edge;
            });
  return out;
}

int64_t ProvenanceRecorder::CountWithSupportAtLeast(int64_t threshold) const {
  int64_t count = 0;
  for (const auto& [key, evidence] : evidence_) {
    if (evidence.support >= threshold) ++count;
  }
  return count;
}

void ProvenanceRecorder::Reset() {
  evidence_.clear();
  required_by_.clear();
  dropped_.clear();
  names_.clear();
  labeled_to_base_.clear();
  base_names_.clear();
  algorithm_ = MinerAlgorithm::kAuto;
}

namespace {

std::string EdgeName(const ProvenanceRecorder& recorder, const Edge& e) {
  return recorder.names()[static_cast<size_t>(e.from)] + " -> " +
         recorder.names()[static_cast<size_t>(e.to)];
}

// One recorded candidate's fate, as one line.
std::string ExplainRecorded(const ProvenanceRecorder& recorder,
                            const EventLog& log, const EdgeProvenance& p) {
  const std::string name = "edge " + EdgeName(recorder, p.edge);
  const std::string seen = std::to_string(p.support);
  switch (p.reason) {
    case DropReason::kKept: {
      std::string out =
          name + " is in the model: observed in " + seen + " executions";
      auto it = recorder.required_by().find(PackEdge(p.edge.from, p.edge.to));
      if (it != recorder.required_by().end()) {
        const EdgeEvidence& required = it->second;
        auto execution = [&](int64_t index) -> const std::string& {
          return log.execution(static_cast<size_t>(index)).name();
        };
        out += ", required by " + std::to_string(required.support) +
               " execution(s) incl. " + execution(required.first_witness);
        if (required.last_witness != required.first_witness) {
          out += " " + execution(required.last_witness);
        }
      }
      return out + "\n";
    }
    case DropReason::kBelowThreshold:
      return name + " was dropped by the noise threshold (seen " + seen +
             "x)\n";
    case DropReason::kTwoCycle: {
      // The reverse survived the threshold too, so it is a candidate.
      const int64_t reverse =
          recorder.evidence().at(PackEdge(p.edge.to, p.edge.from)).support;
      return name + " was dropped at step 3: seen " + seen +
             "x, but the reverse order " + std::to_string(reverse) +
             "x — the activities are independent\n";
    }
    case DropReason::kIntraScc:
      return name +
             " was dropped at step 4: both activities sit in one strongly "
             "connected component of followings (independent)\n";
    case DropReason::kTransitiveReduction:
      if (recorder.algorithm() == MinerAlgorithm::kSpecialDag) {
        return name +
               " was dropped at step 4: the transitive reduction of the "
               "whole graph removed it (a longer path implies the "
               "dependency)\n";
      }
      return name +
             " was dropped at step 6: no execution's transitive reduction "
             "needed it (a longer path covers the dependency everywhere it "
             "was observed)\n";
  }
  return name + " has an unknown fate\n";
}

}  // namespace

std::string NarrateProvenance(const ProvenanceRecorder& recorder,
                              const EventLog& log) {
  const std::vector<std::string>& names = recorder.names();
  const std::vector<EdgeProvenance> edges = recorder.Edges();
  // Candidates by fate, each sorted by (from, to), and the graph step 3
  // left, built in that order.
  std::array<std::vector<Edge>, kNumDropReasons> fates;
  DirectedGraph after_step3(static_cast<NodeId>(names.size()));
  for (const EdgeProvenance& p : edges) {
    fates[static_cast<size_t>(p.reason)].push_back(p.edge);
    if (p.reason != DropReason::kBelowThreshold &&
        p.reason != DropReason::kTwoCycle) {
      after_step3.AddEdge(p.edge.from, p.edge.to);
    }
  }
  const auto& [kept, below, two_cycle, intra_scc, reduced] = fates;
  // Both orientations of a pair are recorded; report each pair once.
  std::vector<Edge> pairs;
  std::copy_if(two_cycle.begin(), two_cycle.end(), std::back_inserter(pairs),
               [](const Edge& e) { return e.from < e.to; });

  std::ostringstream out;
  auto list = [&](const std::vector<Edge>& fate) {
    for (const Edge& e : fate) out << " " << EdgeName(recorder, e);
    out << "\n";
  };
  out << "step 2: collected " << edges.size() << " precedence edges over "
      << log.num_executions() << " executions\n";
  if (!below.empty()) {
    out << "noise threshold dropped " << below.size() << " rare edges:";
    list(below);
  }
  out << "step 3: " << pairs.size()
      << " activity pairs observed in both orders (independent):";
  for (const Edge& e : pairs) {
    out << " {" << names[static_cast<size_t>(e.from)] << ", "
        << names[static_cast<size_t>(e.to)] << "}";
  }
  out << "\n";
  const bool whole_graph = recorder.algorithm() == MinerAlgorithm::kSpecialDag;
  if (!whole_graph) {
    // Step 4's groups: the non-trivial SCCs of what step 3 left.
    std::vector<std::vector<NodeId>> groups;
    for (auto& group : StronglyConnectedComponents(after_step3).Members()) {
      if (group.size() > 1) groups.push_back(std::move(group));
    }
    out << "step 4: " << groups.size()
        << " strongly connected components dissolved:";
    for (const std::vector<NodeId>& group : groups) {
      for (size_t i = 0; i < group.size(); ++i) {
        out << (i ? ", " : " {") << names[static_cast<size_t>(group[i])];
      }
      out << "}";
    }
    out << "\n";
  }
  out << "dependency graph: " << kept.size() + reduced.size() << " edges\n";
  out << (whole_graph ? "step 4: the transitive reduction of the whole graph"
                      : "steps 5-6: per-execution transitive reductions")
      << " kept " << kept.size() << " edges, removed " << reduced.size()
      << ":";
  list(reduced);
  if (recorder.has_base_mapping()) {
    DirectedGraph merged(static_cast<NodeId>(recorder.base_names().size()));
    for (const Edge& e : kept) {
      const ActivityId from = recorder.base_activity(e.from);
      const ActivityId to = recorder.base_activity(e.to);
      if (from != to) merged.AddEdge(from, to);
    }
    out << "step 8: merging the occurrence labels back leaves "
        << merged.num_edges() << " edges between distinct activities\n";
  }
  return out.str();
}

std::string ExplainProvenanceEdge(const ProvenanceRecorder& recorder,
                                  const EventLog& log, ActivityId from,
                                  ActivityId to) {
  std::string out;
  for (const EdgeProvenance& p : recorder.Edges()) {
    if (recorder.base_activity(p.edge.from) == from &&
        recorder.base_activity(p.edge.to) == to) {
      out += ExplainRecorded(recorder, log, p);
    }
  }
  if (!out.empty()) return out;
  const ActivityDictionary& dict = log.dictionary();
  return "edge " + dict.Name(from) + " -> " + dict.Name(to) +
         " was never observed (" + dict.Name(to) + " never started after " +
         dict.Name(from) + " terminated)\n";
}

}  // namespace procmine
