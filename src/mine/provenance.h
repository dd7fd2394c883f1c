// Edge provenance — the evidence trail behind a mined model.
//
// The paper's algorithms decide an edge's fate in four places: the Section 6
// noise threshold (step 2), both-direction removal (step 3), intra-SCC
// removal (step 4, Algorithms 2-3), and the transitive-reduction steps. A
// ProvenanceRecorder, when attached to a miner via its options, captures for
// every candidate edge of step 2 its support (number of witnessing
// executions), the first/last witnessing execution indices, and — for edges
// that do not survive — which step dropped it and why. The recorder is the
// raw material of obs/report.h's RunReport and of `procmine explain`, whose
// narration (NarrateProvenance) and per-edge answers (ExplainProvenanceEdge)
// are rendered from it alone — the paper explains its algorithms through
// exactly such step-by-step traces (Examples 6-7, Figures 3-4).
//
// Recording is opt-in: every instrumented site costs exactly one
// null-pointer branch when no recorder is attached (the same discipline as
// obs/metrics.h). The recorder itself is only ever touched from the
// orchestrating thread — shard workers fill per-shard evidence maps that
// are merged deterministically (sum/min/max) before registration — so the
// recorded provenance is byte-identical for any thread count.

#ifndef PROCMINE_MINE_PROVENANCE_H_
#define PROCMINE_MINE_PROVENANCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"

namespace procmine {

// Defined in mine/driver.h (which includes this header).
enum class MinerAlgorithm : int8_t;

/// Why a candidate precedence edge did not survive mining. kKept marks the
/// survivors; the other values name the algorithm step that removed it.
enum class DropReason : uint8_t {
  kKept = 0,
  /// Step 2, Section 6: support < noise threshold T.
  kBelowThreshold,
  /// Step 3: the edge was observed in both directions (or is a self loop) —
  /// the endpoints are independent.
  kTwoCycle,
  /// Step 4 (Algorithms 2-3): both endpoints lie in one strongly connected
  /// component of the precedence graph.
  kIntraScc,
  /// Final reduction: the dependency is implied by a longer path (Algorithm
  /// 1 step 4, Algorithm 2 steps 5-6).
  kTransitiveReduction,
};

/// Number of DropReason values; they index per-reason arrays.
inline constexpr size_t kNumDropReasons = 5;

/// Stable lower-snake name used in report JSON ("kept", "below_threshold",
/// "two_cycle", "intra_scc", "transitive_reduction").
std::string_view ToString(DropReason reason);

/// Witness evidence for one edge: step 2's executions exhibiting it, or
/// steps 5-6's executions whose reduction required it.
struct EdgeEvidence {
  int64_t support = 0;        ///< executions witnessing the edge
  int64_t first_witness = -1; ///< lowest witnessing execution index
  int64_t last_witness = -1;  ///< highest witnessing execution index

  /// Counts execution `index` as a witness. Indices must arrive in
  /// increasing order (a shard scans its executions in log order).
  void Observe(int64_t index) {
    ++support;
    if (first_witness < 0) first_witness = index;
    last_witness = index;
  }

  /// Folds another disjoint-shard cell into this one (sum/min/max — the
  /// merge is commutative and associative, hence shard-order independent).
  void Merge(const EdgeEvidence& other);
};

/// Per-edge evidence keyed by PackEdge(from, to).
using EdgeEvidenceMap = std::unordered_map<uint64_t, EdgeEvidence>;

/// One candidate edge's full story: evidence plus fate.
struct EdgeProvenance {
  Edge edge{-1, -1};
  int64_t support = 0;
  int64_t first_witness = -1;
  int64_t last_witness = -1;
  DropReason reason = DropReason::kKept;

  bool kept() const { return reason == DropReason::kKept; }
};

/// Collects the provenance of one mining run. Attach via the miners'
/// `provenance` option; read back with Edges() once Mine() returns.
///
/// For the cyclic miner the recorded id space is the occurrence-labeled one
/// ("A#1", "A#2", ...) in which Algorithm 3 actually collects and prunes
/// edges; base_activity() maps labeled ids back to the original activities.
class ProvenanceRecorder {
 public:
  /// Registers the merged step-2 evidence. Called once per run (the cyclic
  /// miner's inner Algorithm 2 run is that run).
  void SetEvidence(EdgeEvidenceMap evidence) {
    evidence_ = std::move(evidence);
  }

  /// Marks candidate (from, to) as dropped. The first recorded reason wins:
  /// the steps run in pipeline order, so the first reason is the step that
  /// actually removed the edge.
  void MarkDropped(NodeId from, NodeId to, DropReason reason);

  /// Registers the merged step 5-6 witness evidence: per kept edge, the
  /// executions whose induced reduction required it. Algorithm 1 has one
  /// whole-graph reduction, which every execution requires: {m, 0, m-1}.
  /// Not part of the report JSON.
  void SetRequiredBy(EdgeEvidenceMap required_by) {
    required_by_ = std::move(required_by);
  }

  /// The algorithm that ran, and the activity names of the recorded id space
  /// (the mined log's dictionary, or the labeled dictionary for the cyclic
  /// miner, whose inner run is Algorithm 2's).
  void SetRun(MinerAlgorithm algorithm, std::vector<std::string> names) {
    algorithm_ = algorithm;
    names_ = std::move(names);
  }

  /// Cyclic miner only: labeled-id -> base-id mapping plus the base names.
  void SetBaseMapping(std::vector<ActivityId> labeled_to_base,
                      std::vector<std::string> base_names) {
    labeled_to_base_ = std::move(labeled_to_base);
    base_names_ = std::move(base_names);
  }

  /// Every candidate edge with its fate, sorted by (from, to) so consumers
  /// see a deterministic order.
  std::vector<EdgeProvenance> Edges() const;

  /// Candidates whose support reaches `threshold` / all candidates — the
  /// inputs of the no-re-mining noise-sensitivity sweep.
  int64_t CountWithSupportAtLeast(int64_t threshold) const;
  int64_t num_candidates() const {
    return static_cast<int64_t>(evidence_.size());
  }

  const EdgeEvidenceMap& evidence() const { return evidence_; }
  const EdgeEvidenceMap& required_by() const { return required_by_; }
  /// kAuto until a run registered its names.
  MinerAlgorithm algorithm() const;
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::string>& base_names() const { return base_names_; }
  bool has_base_mapping() const { return !labeled_to_base_.empty(); }
  /// Base activity of a recorded id (identity when no mapping was set).
  ActivityId base_activity(NodeId labeled) const {
    return has_base_mapping() ? labeled_to_base_[static_cast<size_t>(labeled)]
                              : labeled;
  }

  /// Drops all recorded state so the recorder can serve another run.
  void Reset();

 private:
  EdgeEvidenceMap evidence_;
  EdgeEvidenceMap required_by_;
  std::unordered_map<uint64_t, DropReason> dropped_;
  std::vector<std::string> names_;
  MinerAlgorithm algorithm_{};
  std::vector<ActivityId> labeled_to_base_;
  std::vector<std::string> base_names_;
};

/// The paper-style narration of a recorded run: the edges step 2 collected,
/// what the noise threshold and step 3 dropped, the SCCs step 4 dissolved
/// and what the final reduction kept (Examples 6-7). `log` is the mined log;
/// it supplies the execution count. Algorithm 3 runs are narrated in the
/// occurrence-labeled names Algorithm 2 ran on, plus the step-8 merge.
std::string NarrateProvenance(const ProvenanceRecorder& recorder,
                              const EventLog& log);

/// Why edge `from` -> `to` (ids of log.dictionary()) is in the model or
/// not, one line per recorded candidate: for Algorithm 3, every labeled
/// candidate "from#i -> to#j" in sorted order. `log` supplies the names of
/// the executions that required a kept edge.
std::string ExplainProvenanceEdge(const ProvenanceRecorder& recorder,
                                  const EventLog& log, ActivityId from,
                                  ActivityId to);

}  // namespace procmine

#endif  // PROCMINE_MINE_PROVENANCE_H_
