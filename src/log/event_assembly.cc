#include "log/event_assembly.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"

namespace procmine {

namespace {

/// Stable sort tuned for per-execution event counts: executions are almost
/// always small, and std::stable_sort allocates a merge buffer per call —
/// insertion sort (inherently stable) avoids that for the common case.
template <typename T, typename Less>
void StableSortSmall(std::vector<T>* v, Less less) {
  if (v->size() > 64) {
    std::stable_sort(v->begin(), v->end(), less);
    return;
  }
  for (size_t i = 1; i < v->size(); ++i) {
    T value = std::move((*v)[i]);
    size_t j = i;
    while (j > 0 && less(value, (*v)[j - 1])) {
      (*v)[j] = std::move((*v)[j - 1]);
      --j;
    }
    (*v)[j] = std::move(value);
  }
}

}  // namespace

Result<Execution> AssembleExecution(const CompactEventBatch& batch,
                                    std::string_view name,
                                    std::span<const uint32_t> events,
                                    ActivityDictionary* dict,
                                    PairingScratch* scratch,
                                    std::string_view* error_class) {
  const size_t num_activities = batch.activity_names.size();
  if (scratch->open.size() < num_activities) {
    scratch->open.resize(num_activities);
    scratch->interned.resize(num_activities, -1);
  }
  std::vector<uint32_t>& order = scratch->order;
  order.assign(events.begin(), events.end());
  StableSortSmall(&order, [&](uint32_t a, uint32_t b) {
    const CompactEvent& x = batch.events[a];
    const CompactEvent& y = batch.events[b];
    if (x.timestamp != y.timestamp) return x.timestamp < y.timestamp;
    return x.type < y.type;  // START before END at equal timestamps
  });

  std::vector<ActivityInstance>& instances = scratch->instances;
  instances.clear();
  std::string_view failed;  // empty = the execution paired cleanly
  int32_t failed_activity = -1;
  for (size_t seq = 0; seq < order.size(); ++seq) {
    const CompactEvent& e = batch.events[order[seq]];
    PairingScratch::OpenStarts& fifo =
        scratch->open[static_cast<size_t>(e.activity)];
    if (e.type == EventType::kStart) {
      if (fifo.queue.empty()) scratch->touched.push_back(e.activity);
      fifo.queue.push_back({e.timestamp, seq});
      continue;
    }
    if (fifo.empty()) {
      failed = "end_without_start";
      failed_activity = e.activity;
      break;
    }
    ActivityInstance inst;
    inst.activity = e.activity;  // batch id; remapped below
    inst.start = fifo.queue[fifo.head++].timestamp;
    inst.end = e.timestamp;
    inst.output.assign(
        batch.outputs.begin() + e.output_begin,
        batch.outputs.begin() + e.output_begin + e.output_count);
    instances.push_back(std::move(inst));
  }
  if (failed.empty()) {
    // Report the earliest START (in time-sorted order) left unmatched.
    size_t first_seq = order.size();
    for (int32_t a : scratch->touched) {
      const PairingScratch::OpenStarts& fifo =
          scratch->open[static_cast<size_t>(a)];
      if (!fifo.empty() && fifo.queue[fifo.head].seq < first_seq) {
        first_seq = fifo.queue[fifo.head].seq;
        failed = "start_without_end";
        failed_activity = a;
      }
    }
  }
  for (int32_t a : scratch->touched) {
    PairingScratch::OpenStarts& fifo = scratch->open[static_cast<size_t>(a)];
    fifo.queue.clear();
    fifo.head = 0;
  }
  scratch->touched.clear();
  if (!failed.empty()) {
    *error_class = failed;
    return Status::InvalidArgument(StrFormat(
        "execution '%s': %s for activity '%s'", std::string(name).c_str(),
        failed == "end_without_start" ? "END without START"
                                      : "START without END",
        std::string(
            batch.activity_names[static_cast<size_t>(failed_activity)])
            .c_str()));
  }

  for (ActivityInstance& inst : instances) {
    const size_t a = static_cast<size_t>(inst.activity);
    ActivityId& id = scratch->interned[a];
    if (id < 0) id = dict->Intern(batch.activity_names[a]);
    inst.activity = id;
  }
  StableSortSmall(&instances,
                  [](const ActivityInstance& a, const ActivityInstance& b) {
                    return a.start < b.start;
                  });
  Execution exec{std::string(name)};
  for (ActivityInstance& inst : instances) exec.Append(std::move(inst));
  return exec;
}

Result<EventLog> AssembleEventLog(const CompactEventBatch& batch,
                                  const AssemblyRecovery& recovery) {
  PROCMINE_SPAN("log.assemble");
  const size_t num_instances = batch.instance_names.size();

  // Group event indices by process instance with a stable counting sort:
  // grouped[group_begin[i] .. group_begin[i+1]) are instance i's events in
  // log order.
  std::vector<uint32_t> group_begin(num_instances + 1, 0);
  for (const CompactEvent& e : batch.events) {
    ++group_begin[static_cast<size_t>(e.instance) + 1];
  }
  std::partial_sum(group_begin.begin(), group_begin.end(),
                   group_begin.begin());
  std::vector<uint32_t> grouped(batch.events.size());
  {
    std::vector<uint32_t> cursor(group_begin.begin(), group_begin.end() - 1);
    for (uint32_t i = 0; i < batch.events.size(); ++i) {
      grouped[cursor[static_cast<size_t>(batch.events[i].instance)]++] = i;
    }
  }

  // Instances are emitted in name order (the std::map order of the original
  // grouping); ties cannot occur since names are interned uniquely.
  std::vector<int32_t> by_name(num_instances);
  std::iota(by_name.begin(), by_name.end(), 0);
  std::sort(by_name.begin(), by_name.end(), [&](int32_t a, int32_t b) {
    return batch.instance_names[static_cast<size_t>(a)] <
           batch.instance_names[static_cast<size_t>(b)];
  });

  EventLog log;
  PairingScratch scratch;
  for (int32_t inst_id : by_name) {
    const uint32_t begin = group_begin[static_cast<size_t>(inst_id)];
    const uint32_t end = group_begin[static_cast<size_t>(inst_id) + 1];
    if (begin == end) continue;
    std::string_view error_class;
    Result<Execution> exec = AssembleExecution(
        batch, batch.instance_names[static_cast<size_t>(inst_id)],
        std::span<const uint32_t>(grouped.data() + begin, end - begin),
        &log.dictionary(), &scratch, &error_class);
    if (exec.ok()) {
      log.AddExecution(std::move(*exec));
      continue;
    }
    if (recovery.policy == RecoveryPolicy::kStrict) return exec.status();
    if (recovery.report != nullptr) {  // drop the whole execution
      ++recovery.report->executions_dropped;
      recovery.report->AddErrorClass(error_class);
      if (recovery.policy == RecoveryPolicy::kQuarantine) {
        QuarantineRecord record;
        record.error_class = std::string(error_class);
        record.raw = exec.status().message();
        recovery.report->quarantined.push_back(std::move(record));
      }
    }
  }
  return log;
}

}  // namespace procmine
