#include "mine/driver.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "log/transform.h"
#include "mine/cyclic_miner.h"
#include "mine/general_dag_miner.h"
#include "mine/miner.h"
#include "mine/provenance.h"
#include "mine/special_dag_miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flat_set_memo.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace procmine {
namespace mine_internal {

namespace {

// A resident EventLog as a one-window source: passes see the log itself.
class LogSource final : public ExecutionSource {
 public:
  /// Borrows `log`, which must outlive the source.
  explicit LogSource(const EventLog& log) : log_(&log) {}
  /// Owns `log` (a relabeled log).
  explicit LogSource(EventLog&& log) : owned_(std::move(log)), log_(&owned_) {}

  const ActivityDictionary& dictionary() const override {
    return log_->dictionary();
  }
  int64_t num_executions() const override {
    return static_cast<int64_t>(log_->num_executions());
  }
  // A prefix is copied once, not per pass.
  void Plan(int64_t executions) override {
    if (executions < num_executions()) {
      owned_ = TakeExecutions(*log_, static_cast<size_t>(executions));
      log_ = &owned_;
    }
  }
  Status ForEachWindow(SourcePass, const WindowFn& fn) override {
    return fn(*log_).status();
  }
  const EventLog* resident_log() const override { return log_; }

 private:
  EventLog owned_;
  const EventLog* log_;
};

// The first instance of `exec` whose activity occurred earlier in it, or
// null. `seen` is scratch sized to the dictionary.
const ActivityInstance* FirstRepeat(const Execution& exec,
                                    std::vector<bool>* seen) {
  std::fill(seen->begin(), seen->end(), false);
  for (const ActivityInstance& inst : exec.instances()) {
    if ((*seen)[static_cast<size_t>(inst.activity)]) return &inst;
    (*seen)[static_cast<size_t>(inst.activity)] = true;
  }
  return nullptr;
}

// Algorithm 1's per-execution validation: InvalidArgument unless `exec`
// contains every one of the `n` activities exactly once.
Status ValidateExactlyOnce(const Execution& exec,
                           const ActivityDictionary& dict, NodeId n,
                           std::vector<bool>* seen) {
  if (exec.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(StrFormat(
        "execution '%s' has %zu activities but the log has %d distinct "
        "activities; Algorithm 1 requires every activity exactly once "
        "per execution (use GeneralDagMiner)",
        exec.name().c_str(), exec.size(), n));
  }
  if (const ActivityInstance* repeat = FirstRepeat(exec, seen)) {
    return Status::InvalidArgument(StrFormat(
        "execution '%s' repeats activity '%s'; Algorithm 1 requires "
        "every activity exactly once per execution",
        exec.name().c_str(), dict.Name(repeat->activity).c_str()));
  }
  return Status::OK();
}

// Algorithm 2's per-execution validation: InvalidArgument when `exec`
// repeats an activity.
Status ValidateNoRepeats(const Execution& exec,
                         const ActivityDictionary& dict, NodeId,
                         std::vector<bool>* seen) {
  if (const ActivityInstance* repeat = FirstRepeat(exec, seen)) {
    return Status::InvalidArgument(StrFormat(
        "execution '%s' repeats activity '%s'; Algorithm 2 assumes an "
        "acyclic process (use CyclicMiner)",
        exec.name().c_str(), dict.Name(repeat->activity).c_str()));
  }
  return Status::OK();
}

// The step 6 union of kept edges, as packed (from, to) keys: linear probing
// over one power-of-two array. Marking re-inserts edges the set already
// holds far more often than it adds one, and a probe of this flat array is
// much cheaper there than a node-based set's bucket walk.
class EdgeMarks {
 public:
  void Insert(uint64_t key) {
    PROCMINE_DCHECK(key != kEmpty);
    size_t i = SlotOf(key);
    for (; slots_[i] != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == key) return;
    }
    slots_[i] = key;
    if (++size_ * 2 > slots_.size()) Grow();
  }
  void InsertAll(const EdgeMarks& other) {
    for (uint64_t key : other.slots_) {
      if (key != kEmpty) Insert(key);
    }
  }
  size_t size() const { return size_; }
  /// The marked keys, ascending.
  std::vector<uint64_t> Sorted() const {
    std::vector<uint64_t> keys;
    keys.reserve(size_);
    for (uint64_t key : slots_) {
      if (key != kEmpty) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  // PackEdge(-1, -1): no edge has negative endpoints.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  size_t SlotOf(uint64_t key) const {
    // Fibonacci hashing: the product's high bits mix both endpoints.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void Grow() {
    std::vector<uint64_t> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);
    --shift_;
    size_ = 0;
    for (uint64_t key : old) {
      if (key != kEmpty) Insert(key);
    }
  }

  std::vector<uint64_t> slots_ = std::vector<uint64_t>(64, kEmpty);
  int shift_ = 64 - 6;  ///< 64 - log2(slots_.size())
  size_t size_ = 0;
};

// One memo shared by every worker and every window of a run, keyed by the
// sorted activity set. A reduction is a pure function of the set, so
// first-writer-wins sharing cannot perturb the model. Only a provenance run
// stores the kept edges, which later executions of the set witness.
using ReductionMemo = FlatSetMemo<Edge>;

// Steps 5-6 map phase for one span of `log`: transitively reduce the
// induced subgraph of `g` once per distinct activity set and union the
// surviving edges into `marked`. The shard whose insert creates a set's
// entry marks its edges; a memo hit marks nothing, because the union
// already holds them. Marked-set union is order-independent, so any
// partition of the executions into windows and shards yields the same set.
// When `required` is non-null (a provenance run) each kept edge also counts
// the execution as a witness.
Status MarkReductionEdges(const EventLog& log, const DirectedGraph& g,
                          ExecutionSpan span, ReductionMemo* memo,
                          RunBudget* budget, bool* budget_aborted,
                          EdgeMarks* marked,
                          EdgeEvidenceMap* required) {
  PROCMINE_SPAN("general_dag.reduce_shard");
  // Per-chunk scratch, recycled across every execution in the span: the
  // steady-state loop performs no heap allocation.
  InducedReducer reducer(g);
  std::vector<NodeId> present;
  std::vector<Edge> computed;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
  for (size_t e = span.begin; e < span.end; ++e) {
    // A budget probe reads the clock (and possibly /proc), so amortize it;
    // the sticky exhausted flag makes every chunk stop within one stride.
    if (budget != nullptr && (e - span.begin) % 1024 == 0 &&
        budget->Check() != BudgetResource::kNone) {
      *budget_aborted = true;
      return Status::OK();
    }
    present.clear();
    for (const ActivityInstance& inst : log.execution(e).instances()) {
      present.push_back(inst.activity);
    }
    std::sort(present.begin(), present.end());

    std::span<const Edge> kept;
    if (memo->Find(present, required == nullptr ? nullptr : &kept)) {
      ++memo_hits;
    } else {
      ++memo_misses;
      PROCMINE_RETURN_NOT_OK(reducer.Reduce(present, &computed));
      kept = computed;
      if (memo->Insert(present, required == nullptr
                                    ? std::span<const Edge>()
                                    : kept)) {
        for (const Edge& edge : kept) {
          marked->Insert(PackEdge(edge.from, edge.to));
        }
      }
    }
    if (required != nullptr) {
      for (const Edge& edge : kept) {
        (*required)[PackEdge(edge.from, edge.to)].Observe(
            static_cast<int64_t>(e));
      }
    }
  }
  // One sharded add per counter at chunk end, not per execution. With a
  // shared memo the hit/miss split depends on which worker saw a duplicate
  // first; the sum hits+misses stays deterministic.
  static obs::Counter* hits =
      obs::MetricsRegistry::Get().GetCounter("general_dag.memo_hits");
  static obs::Counter* misses =
      obs::MetricsRegistry::Get().GetCounter("general_dag.memo_misses");
  hits->Add(memo_hits);
  misses->Add(memo_misses);
  return Status::OK();
}

constexpr const char* kCollectDropped =
    "precedence collection and all later phases skipped; the "
    "model has no edges";

// What the chain does differently for Algorithm 1 and Algorithm 2: span and
// budget-phase names, the degradation text of the reduce cut, and which
// structural steps run after step 3.
struct DagAlgorithm {
  const char* mine_span;
  const char* validate_span;
  const char* collect_phase;
  const char* reduce_phase;  ///< also the reduce step's span
  const char* reduce_dropped;
  Status (*validate)(const Execution&, const ActivityDictionary&, NodeId,
                     std::vector<bool>* seen);
  /// kGeneralDag (Algorithm 2): step 4 and the per-execution reductions of
  /// steps 5-6. kSpecialDag (Algorithm 1): one transitive reduction of the
  /// whole graph.
  MinerAlgorithm algorithm;
};

constexpr DagAlgorithm kAlgorithm1 = {
    "special_dag.mine",
    "special_dag.validate",
    "special_dag.collect",
    "special_dag.reduce",
    "transitive reduction skipped; the model may contain "
    "redundant (transitively implied) edges",
    ValidateExactlyOnce,
    MinerAlgorithm::kSpecialDag};

constexpr DagAlgorithm kAlgorithm2 = {
    "general_dag.mine",
    "general_dag.validate",
    "general_dag.collect",
    "general_dag.reduce",
    "per-execution transitive reductions skipped; the model is conformal "
    "but keeps edges a full run would have removed",
    ValidateNoRepeats,
    MinerAlgorithm::kGeneralDag};

// Below the inline threshold the pool's wake/sleep traffic costs more than
// the parallelism returns; the sequential path is byte-identical.
std::unique_ptr<ThreadPool> MaybePool(int num_threads, int64_t executions) {
  const int resolved = ResolveThreadCount(num_threads);
  if (resolved > 1 &&
      executions >=
          static_cast<int64_t>(ThreadPool::kSmallInputInlineThreshold)) {
    return std::make_unique<ThreadPool>(resolved);
  }
  return nullptr;
}

// Steps 2-4: the precedence graph at the noise threshold, minus 2-cycles
// and, for Algorithms 2-3, minus intra-SCC edges (a DAG after that).
DirectedGraph PrecedenceDag(const EdgeCounts& counts, NodeId n,
                            int64_t threshold, bool drop_sccs,
                            ProvenanceRecorder* prov) {
  DirectedGraph g = BuildPrecedenceGraph(counts, n, threshold, prov);
  RemoveTwoCycles(&g, prov);
  if (drop_sccs) {
    RemoveIntraSccEdges(&g, prov);
    PROCMINE_DCHECK(!HasCycle(g));
  }
  return g;
}

// Step 6: the DAG edges some execution's reduction marked.
DirectedGraph MarkedGraph(NodeId n, const EdgeMarks& marked) {
  DirectedGraph result(n);
  for (uint64_t key : marked.Sorted()) {
    Edge e = UnpackEdge(key);
    result.AddEdge(e.from, e.to);
  }
  return result;
}

// Records the DAG edges the reduction did not keep.
void RecordReduced(const DirectedGraph& dag, const DirectedGraph& kept,
                   ProvenanceRecorder* prov) {
  if (prov == nullptr) return;
  for (const Edge& e : dag.Edges()) {
    if (!kept.HasEdge(e.from, e.to)) {
      prov->MarkDropped(e.from, e.to, DropReason::kTransitiveReduction);
    }
  }
}

// Steps 1-2 over every window, counters summed. Windows partition the
// executions and the per-execution dedup never crosses an execution, so the
// sum equals a one-shot collection. Provenance evidence indexes executions
// within the window, so it is only recorded over a one-window source.
Result<EdgeCounts> CollectPass(ExecutionSource* source, ThreadPool* pool,
                               const AlgorithmOptions& options) {
  EdgeCounts total;
  PROCMINE_RETURN_NOT_OK(source->ForEachWindow(
      SourcePass::kCollect, [&](const EventLog& window) -> Result<bool> {
        EdgeCounts counts = CollectPrecedenceEdges(
            window, pool, options.provenance, options.chunk_size);
        if (total.empty()) {
          total = std::move(counts);
        } else {
          for (const auto& [key, count] : counts) total[key] += count;
        }
        return true;
      }));
  return total;
}

// Steps 5-6 over every window: each execution's induced subgraph of `dag`
// is reduced in shards against one memo shared by every shard and window,
// and the kept edges are unioned. Sets *aborted (and stops) when the budget
// stops a shard. A non-null `required` receives the merged step 5-6 witness
// evidence; like step 2's, it indexes executions within the window.
Status ReducePass(ExecutionSource* source, ThreadPool* pool,
                  const AlgorithmOptions& options, const DirectedGraph& dag,
                  bool* aborted, EdgeMarks* marked,
                  EdgeEvidenceMap* required) {
  ReductionMemo memo;
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  return source->ForEachWindow(
      SourcePass::kReduce, [&](const EventLog& window) -> Result<bool> {
        std::vector<ExecutionSpan> spans = window.Shards(
            PlanChunks(window.num_executions(), threads, options.chunk_size));
        std::vector<EdgeMarks> shard_marked(spans.size());
        std::vector<EdgeEvidenceMap> shard_required(
            required == nullptr ? 0 : spans.size());
        std::vector<Status> shard_status(spans.size());
        std::vector<uint8_t> shard_aborted(spans.size(), 0);
        auto run_shard = [&](size_t s) {
          bool shard_abort = false;
          shard_status[s] = MarkReductionEdges(
              window, dag, spans[s], &memo, options.budget, &shard_abort,
              &shard_marked[s],
              required == nullptr ? nullptr : &shard_required[s]);
          shard_aborted[s] = shard_abort ? 1 : 0;
        };
        ForEachChunk(pool, spans.size(), run_shard);
        // First failure by shard order: deterministic.
        for (const Status& st : shard_status) PROCMINE_RETURN_NOT_OK(st);
        if (std::find(shard_aborted.begin(), shard_aborted.end(), 1) !=
            shard_aborted.end()) {
          *aborted = true;
          return false;
        }
        for (const EdgeMarks& shard : shard_marked) marked->InsertAll(shard);
        // Disjoint shards merge by sum/min/max: any partition, same cells.
        for (const EdgeEvidenceMap& shard : shard_required) {
          for (const auto& [key, cell] : shard) (*required)[key].Merge(cell);
        }
        return true;
      });
}

// The Algorithm 1/2 phase chain over `source`, in its id space. A budget
// cut returns the best graph so far: no edges before collection, the
// unreduced graph before or during reduction (for Algorithm 2 that is the
// conformal post-SCC DAG, Theorem 5). Every non-error return registers the
// source's activity names with the provenance sink.
Result<DirectedGraph> DagChain(const DagAlgorithm& algo,
                               ExecutionSource* source, ThreadPool* pool,
                               const AlgorithmOptions& options,
                               bool validate) {
  obs::ScopedSpan mine_span(algo.mine_span);
  const ActivityDictionary& dict = source->dictionary();
  const NodeId n = dict.size();
  if (n == 0 || source->num_executions() == 0) {
    return Status::InvalidArgument("log is empty");
  }
  if (validate) {
    obs::ScopedSpan validate_span(algo.validate_span);
    std::vector<bool> seen(static_cast<size_t>(n));
    PROCMINE_RETURN_NOT_OK(source->ForEachWindow(
        SourcePass::kValidate, [&](const EventLog& window) -> Result<bool> {
          for (const Execution& exec : window.executions()) {
            PROCMINE_RETURN_NOT_OK(
                algo.validate(exec, window.dictionary(), n, &seen));
          }
          return true;
        }));
  }

  const bool per_execution = algo.algorithm == MinerAlgorithm::kGeneralDag;
  ProvenanceRecorder* prov = options.provenance;
  auto finish = [&](DirectedGraph g) {
    if (prov != nullptr) prov->SetRun(algo.algorithm, dict.names());
    return g;
  };
  if (BudgetCut(options.budget, options.degradation, algo.collect_phase,
                kCollectDropped)) {
    return finish(DirectedGraph(n));
  }
  PROCMINE_ASSIGN_OR_RETURN(EdgeCounts counts,
                            CollectPass(source, pool, options));
  DirectedGraph dag = PrecedenceDag(counts, n, options.noise_threshold,
                                    per_execution, prov);
  if (BudgetCut(options.budget, options.degradation, algo.reduce_phase,
                algo.reduce_dropped)) {
    return finish(std::move(dag));
  }

  obs::ScopedSpan reduce_span(algo.reduce_phase);
  if (!per_execution) {
    // Algorithm 1 step 4: transitive reduction of the whole graph yields
    // the minimal dependency graph.
    Result<DirectedGraph> reduced = TransitiveReduction(dag);
    if (!reduced.ok()) {
      return Status::FailedPrecondition(
          "precedence graph is cyclic after removing 2-cycles; the log "
          "violates the special-DAG assumptions (try GeneralDagMiner or a "
          "higher noise threshold): " +
          reduced.status().message());
    }
    if (prov != nullptr) {
      // Every execution holds every activity, so all m of them require
      // each edge of the one reduction.
      const int64_t m = source->num_executions();
      EdgeEvidenceMap required;
      for (const Edge& e : reduced->Edges()) {
        required[PackEdge(e.from, e.to)] = EdgeEvidence{m, 0, m - 1};
      }
      prov->SetRequiredBy(std::move(required));
    }
    RecordReduced(dag, *reduced, prov);
    return finish(reduced.MoveValueOrDie());
  }

  // Steps 5-6: keep exactly the edges needed by at least one execution —
  // those in the transitive reduction of the execution's induced subgraph.
  EdgeMarks marked;
  EdgeEvidenceMap required;
  bool aborted = false;
  PROCMINE_RETURN_NOT_OK(ReducePass(source, pool, options, dag, &aborted,
                                    &marked,
                                    prov == nullptr ? nullptr : &required));
  if (aborted) {
    BudgetCut(options.budget, options.degradation, algo.reduce_phase,
              algo.reduce_dropped);
    return finish(std::move(dag));
  }
  static obs::Counter* kept = obs::MetricsRegistry::Get().GetCounter(
      "general_dag.reduction_edges_marked");
  kept->Add(static_cast<int64_t>(marked.size()));
  PROCMINE_LOG(Debug) << "reduction kept " << marked.size() << " of "
                      << dag.num_edges() << " DAG edges ("
                      << source->num_executions() << " executions, "
                      << (pool == nullptr ? 1 : pool->num_threads())
                      << " threads)";
  DirectedGraph result = MarkedGraph(n, marked);
  if (prov != nullptr) prov->SetRequiredBy(std::move(required));
  RecordReduced(dag, result, prov);
  return finish(std::move(result));
}

// Algorithm 3's labeled view of a windowed source: each window is relabeled
// as a pass visits it, so the labeled log is never whole in memory.
class RelabeledWindows final : public ExecutionSource {
 public:
  RelabeledWindows(ExecutionSource* base, const OccurrenceLabeler& labeler,
                   ThreadPool* pool)
      : base_(base), labeler_(labeler), pool_(pool) {}

  const ActivityDictionary& dictionary() const override {
    return labeler_.labeled_dictionary();
  }
  int64_t num_executions() const override { return base_->num_executions(); }
  void Plan(int64_t executions) override { base_->Plan(executions); }
  Status ForEachWindow(SourcePass pass, const WindowFn& fn) override {
    return base_->ForEachWindow(pass, [&](const EventLog& window) {
      return fn(labeler_.Relabel(window, pool_));
    });
  }

 private:
  ExecutionSource* base_;
  const OccurrenceLabeler& labeler_;
  ThreadPool* pool_;
};

// Algorithm 3: label occurrences (steps 2-3), run the Algorithm 2 chain on
// the labeled executions (steps 3-7), merge the labels back (step 8).
Result<ProcessGraph> MineCyclic(ExecutionSource* source, ThreadPool* pool,
                                const AlgorithmOptions& options) {
  PROCMINE_SPAN("cyclic.mine");
  const ActivityDictionary& dict = source->dictionary();
  const NodeId n = dict.size();
  if (n == 0 || source->num_executions() == 0) {
    return Status::InvalidArgument("log is empty");
  }
  ProvenanceRecorder* prov = options.provenance;
  if (BudgetCut(options.budget, options.degradation, "cyclic.label",
                "occurrence labeling and all later phases skipped; the "
                "model has no edges")) {
    if (prov != nullptr) prov->SetRun(MinerAlgorithm::kCyclic, dict.names());
    return ProcessGraph(DirectedGraph(n), dict.names());
  }

  // Pass 1 streams the source in log order, so labels intern in
  // first-encounter order for any windowing. A resident log is then
  // relabeled once, in parallel; a windowed source per visited window.
  OccurrenceLabeler labeler;
  std::unique_ptr<ExecutionSource> labeled;
  {
    PROCMINE_SPAN("cyclic.label");
    PROCMINE_RETURN_NOT_OK(source->ForEachWindow(
        SourcePass::kLabel, [&](const EventLog& window) -> Result<bool> {
          for (const Execution& exec : window.executions()) {
            labeler.Observe(exec, window.dictionary());
          }
          return true;
        }));
    if (const EventLog* log = source->resident_log()) {
      labeled = std::make_unique<LogSource>(labeler.Relabel(*log, pool));
    } else {
      labeled = std::make_unique<RelabeledWindows>(source, labeler, pool);
    }
  }
  static obs::Counter* labels =
      obs::MetricsRegistry::Get().GetCounter("cyclic.labels_created");
  labels->Add(labeler.labeled_dictionary().size());

  // The labeled log is repeat-free by construction, so it is not validated.
  // A budget cut inside yields a conformal-but-unminimized labeled graph,
  // which still merges into a valid (degraded) base model.
  PROCMINE_ASSIGN_OR_RETURN(
      DirectedGraph labeled_dag,
      DagChain(kAlgorithm2, labeled.get(), pool, options, /*validate=*/false));
  const std::vector<ActivityId>& labeled_to_base = labeler.labeled_to_base();
  if (prov != nullptr) {
    // Provenance was recorded under labeled names; attach the merge-back
    // mapping so report consumers can relate "A#2 -> B#1" to A -> B.
    prov->SetBaseMapping(labeled_to_base, dict.names());
  }

  // Step 8: merge equivalent sets; keep edges between different activities.
  PROCMINE_SPAN("cyclic.merge");
  DirectedGraph merged(n);
  for (const Edge& e : labeled_dag.Edges()) {
    ActivityId from = labeled_to_base[static_cast<size_t>(e.from)];
    ActivityId to = labeled_to_base[static_cast<size_t>(e.to)];
    PROCMINE_CHECK(from >= 0 && to >= 0);
    if (from != to) merged.AddEdge(from, to);
  }
  return ProcessGraph(std::move(merged), dict.names());
}

// kAuto: Algorithm 3 if some execution repeats an activity, else Algorithm
// 1 if every execution holds every activity, else Algorithm 2. Stops
// reading at the first repeat.
Result<MinerAlgorithm> SelectAlgorithm(ExecutionSource* source) {
  const NodeId n = source->dictionary().size();
  bool cyclic = false;
  bool all_exactly_once = true;
  std::vector<bool> seen(static_cast<size_t>(n));
  PROCMINE_RETURN_NOT_OK(source->ForEachWindow(
      SourcePass::kSelect, [&](const EventLog& window) -> Result<bool> {
        for (const Execution& exec : window.executions()) {
          if (FirstRepeat(exec, &seen) != nullptr) {
            cyclic = true;  // repeats => cyclic process
            return false;
          }
          if (exec.size() != static_cast<size_t>(n)) all_exactly_once = false;
        }
        return true;
      }));
  if (cyclic) return MinerAlgorithm::kCyclic;
  return all_exactly_once ? MinerAlgorithm::kSpecialDag
                          : MinerAlgorithm::kGeneralDag;
}

// One algorithm over the whole source (no execution cut, no kAuto): the
// per-algorithm miners' entry.
Result<ProcessGraph> RunAlgorithm(ExecutionSource* source,
                                  MinerAlgorithm algorithm,
                                  const AlgorithmOptions& options) {
  std::unique_ptr<ThreadPool> pool =
      MaybePool(options.num_threads, source->num_executions());
  switch (algorithm) {
    case MinerAlgorithm::kSpecialDag:
    case MinerAlgorithm::kGeneralDag: {
      const DagAlgorithm& algo = algorithm == MinerAlgorithm::kSpecialDag
                                     ? kAlgorithm1
                                     : kAlgorithm2;
      PROCMINE_ASSIGN_OR_RETURN(
          DirectedGraph g,
          DagChain(algo, source, pool.get(), options, /*validate=*/true));
      return ProcessGraph(std::move(g), source->dictionary().names());
    }
    case MinerAlgorithm::kCyclic:
      return MineCyclic(source, pool.get(), options);
    case MinerAlgorithm::kAuto:
      break;
  }
  return Status::Internal("unreachable: unresolved miner algorithm");
}

}  // namespace

Result<ProcessGraph> MineSource(ExecutionSource* source,
                                const MinerOptions& options) {
  const int64_t total = source->num_executions();
  if (total == 0) return Status::InvalidArgument("log is empty");

  // --max-executions: mine only the first N executions and record the
  // truncation as a degradation.
  int64_t limit = total;
  if (options.budget != nullptr && options.budget->OverExecutionLimit(total)) {
    limit = options.budget->limits().max_executions;
    if (options.degradation != nullptr && !options.degradation->degraded) {
      options.degradation->degraded = true;
      options.degradation->resource = BudgetResource::kExecutions;
      options.degradation->cut_phase = "miner.input";
      options.degradation->dropped = StrFormat(
          "%lld of %lld executions beyond --max-executions ignored",
          static_cast<long long>(total - limit),
          static_cast<long long>(total));
    }
    if (limit == 0) {
      return Status::InvalidArgument("max-executions leaves the log empty");
    }
  }
  source->Plan(limit);

  MinerAlgorithm algorithm = options.algorithm;
  if (algorithm == MinerAlgorithm::kAuto) {
    PROCMINE_ASSIGN_OR_RETURN(algorithm, SelectAlgorithm(source));
  }
  return RunAlgorithm(source, algorithm, options);
}

Result<DirectedGraph> MineFromStatistics(const EdgeCounts& counts, NodeId n,
                                         int64_t noise_threshold,
                                         const ActivitySetCounts& sets) {
  DirectedGraph dag = PrecedenceDag(counts, n, noise_threshold,
                                    /*drop_sccs=*/true, nullptr);
  InducedReducer reducer(dag);
  std::vector<Edge> kept;
  EdgeMarks marked;
  for (const auto& [present, executions] : sets) {
    PROCMINE_RETURN_NOT_OK(reducer.Reduce(present, &kept));
    for (const Edge& e : kept) marked.Insert(PackEdge(e.from, e.to));
  }
  return MarkedGraph(n, marked);
}

}  // namespace mine_internal

using mine_internal::LogSource;
using mine_internal::RunAlgorithm;

Result<ProcessGraph> SpecialDagMiner::Mine(const EventLog& log) const {
  LogSource source(log);
  return RunAlgorithm(&source, MinerAlgorithm::kSpecialDag, options_);
}

Result<ProcessGraph> GeneralDagMiner::Mine(const EventLog& log) const {
  LogSource source(log);
  return RunAlgorithm(&source, MinerAlgorithm::kGeneralDag, options_);
}

Result<ProcessGraph> CyclicMiner::Mine(const EventLog& log) const {
  LogSource source(log);
  return RunAlgorithm(&source, MinerAlgorithm::kCyclic, options_);
}

MinerAlgorithm ProcessMiner::SelectAlgorithm(const EventLog& log) {
  LogSource source(log);
  // A resident log's one window cannot fail to load.
  return mine_internal::SelectAlgorithm(&source).ValueOrDie();
}

Result<ProcessGraph> ProcessMiner::Mine(const EventLog& log) const {
  LogSource source(log);
  return mine_internal::MineSource(&source, options_);
}

Result<AnnotatedProcess> ProcessMiner::MineWithConditions(
    const EventLog& log, ConditionMinerOptions condition_options) const {
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph graph, Mine(log));
  return ConditionMiner(condition_options).Mine(graph, log);
}

}  // namespace procmine
