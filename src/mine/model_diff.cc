#include "mine/model_diff.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "graph/algorithms.h"
#include "util/strings.h"

namespace procmine {

std::string_view ModelDiscrepancyKindName(ModelDiscrepancy::Kind kind) {
  switch (kind) {
    case ModelDiscrepancy::Kind::kUnobservedActivity:
      return "unobserved_activity";
    case ModelDiscrepancy::Kind::kUndocumentedActivity:
      return "undocumented_activity";
    case ModelDiscrepancy::Kind::kUnexercisedDependency:
      return "unexercised_dependency";
    case ModelDiscrepancy::Kind::kUndocumentedDependency:
      return "undocumented_dependency";
    case ModelDiscrepancy::Kind::kRefinedEdge:
      return "refined_edge";
  }
  return "unknown";
}

std::string ModelDiscrepancy::ToString() const {
  switch (kind) {
    case Kind::kUnobservedActivity:
      return "activity '" + activity + "' is designed but never observed";
    case Kind::kUndocumentedActivity:
      return "activity '" + activity + "' is observed but not designed";
    case Kind::kUnexercisedDependency:
      return "designed flow " + from + " -> " + to +
             " is not followed in practice";
    case Kind::kUndocumentedDependency:
      return "practice orders " + from + " -> " + to +
             ", which the design does not prescribe";
    case Kind::kRefinedEdge:
      return "designed edge " + from + " -> " + to +
             " is realized through intermediate activities";
  }
  return "unknown discrepancy";
}

int64_t ModelDiff::CountKind(ModelDiscrepancy::Kind kind) const {
  int64_t n = 0;
  for (const ModelDiscrepancy& d : discrepancies) n += d.kind == kind;
  return n;
}

std::string ModelDiff::Summary() const {
  if (structurally_equal()) {
    return "models agree: every designed flow is followed and no "
           "undocumented behaviour was mined\n";
  }
  std::ostringstream out;
  out << discrepancies.size() << " discrepancies:\n";
  for (const ModelDiscrepancy& d : discrepancies) {
    out << "  - " << d.ToString() << "\n";
  }
  return out.str();
}

std::string ModelDiff::ToJson() const {
  auto quoted = [](const std::string& s) {
    std::string out;
    AppendJsonQuoted(&out, s);
    return out;
  };
  std::string out;
  out.reserve(128 + discrepancies.size() * 96);
  out += "{\n";
  out += "  \"model_diff_schema\": 1,\n";
  out += StrFormat("  \"structurally_equal\": %s,\n",
                   structurally_equal() ? "true" : "false");
  out += "  \"counts\": {";
  constexpr ModelDiscrepancy::Kind kKinds[] = {
      ModelDiscrepancy::Kind::kUnobservedActivity,
      ModelDiscrepancy::Kind::kUndocumentedActivity,
      ModelDiscrepancy::Kind::kUnexercisedDependency,
      ModelDiscrepancy::Kind::kUndocumentedDependency,
      ModelDiscrepancy::Kind::kRefinedEdge,
  };
  for (size_t i = 0; i < std::size(kKinds); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("\"%s\": %lld",
                     std::string(ModelDiscrepancyKindName(kKinds[i])).c_str(),
                     static_cast<long long>(CountKind(kKinds[i])));
  }
  out += "},\n";
  out += "  \"discrepancies\": [";
  for (size_t i = 0; i < discrepancies.size(); ++i) {
    const ModelDiscrepancy& d = discrepancies[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += StrFormat(
        "{\"kind\": \"%s\", \"from\": %s, \"to\": %s, \"activity\": %s}",
        std::string(ModelDiscrepancyKindName(d.kind)).c_str(),
        quoted(d.from).c_str(), quoted(d.to).c_str(),
        quoted(d.activity).c_str());
  }
  out += discrepancies.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

ModelDiff DiffModels(const ProcessGraph& designed,
                     const ProcessGraph& mined) {
  ModelDiff diff;

  // Activity-level comparison by name. Isolated mined vertices are treated
  // as unobserved (the mined dictionary may list activities that never
  // occurred).
  std::map<std::string, NodeId> designed_ids, mined_ids;
  for (NodeId v = 0; v < designed.num_activities(); ++v) {
    designed_ids[designed.name(v)] = v;
  }
  for (NodeId v = 0; v < mined.num_activities(); ++v) {
    const DirectedGraph& g = mined.graph();
    if (g.InDegree(v) > 0 || g.OutDegree(v) > 0) {
      mined_ids[mined.name(v)] = v;
    }
  }
  for (const auto& [name, id] : designed_ids) {
    if (mined_ids.count(name) == 0) {
      diff.discrepancies.push_back(
          {ModelDiscrepancy::Kind::kUnobservedActivity, "", "", name});
    }
  }
  for (const auto& [name, id] : mined_ids) {
    if (designed_ids.count(name) == 0) {
      diff.discrepancies.push_back(
          {ModelDiscrepancy::Kind::kUndocumentedActivity, "", "", name});
    }
  }

  // Edge and dependency comparison over the common activities.
  DirectedGraph designed_closure = TransitiveClosure(designed.graph());
  DirectedGraph mined_closure = TransitiveClosure(mined.graph());
  auto mined_id = [&](const std::string& name) -> NodeId {
    auto it = mined_ids.find(name);
    return it == mined_ids.end() ? -1 : it->second;
  };

  for (const Edge& e : designed.graph().Edges()) {
    const std::string& from = designed.name(e.from);
    const std::string& to = designed.name(e.to);
    NodeId mf = mined_id(from);
    NodeId mt = mined_id(to);
    if (mf < 0 || mt < 0) continue;  // already reported at activity level
    if (mined.graph().HasEdge(mf, mt)) continue;
    if (mined_closure.HasEdge(mf, mt)) {
      diff.discrepancies.push_back(
          {ModelDiscrepancy::Kind::kRefinedEdge, from, to, ""});
    } else {
      diff.discrepancies.push_back(
          {ModelDiscrepancy::Kind::kUnexercisedDependency, from, to, ""});
    }
  }

  // Mined dependencies (closure edges) that the design's closure lacks.
  std::set<std::pair<std::string, std::string>> reported;
  for (const Edge& e : mined_closure.Edges()) {
    const std::string& from = mined.name(e.from);
    const std::string& to = mined.name(e.to);
    auto df = designed_ids.find(from);
    auto dt = designed_ids.find(to);
    if (df == designed_ids.end() || dt == designed_ids.end()) continue;
    if (designed_closure.HasEdge(df->second, dt->second)) continue;
    if (reported.emplace(from, to).second) {
      diff.discrepancies.push_back(
          {ModelDiscrepancy::Kind::kUndocumentedDependency, from, to, ""});
    }
  }
  // Canonical order: reports must be byte-stable regardless of the id order
  // the two dictionaries happened to intern activities in.
  std::sort(diff.discrepancies.begin(), diff.discrepancies.end(),
            [](const ModelDiscrepancy& a, const ModelDiscrepancy& b) {
              return std::tie(a.kind, a.from, a.to, a.activity) <
                     std::tie(b.kind, b.from, b.to, b.activity);
            });
  return diff;
}

}  // namespace procmine
