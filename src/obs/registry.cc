#include "obs/registry.h"

#include <algorithm>
#include <unordered_map>

#include "util/atomic_file.h"
#include "util/crc32c.h"
#include "util/json.h"
#include "util/mapped_file.h"
#include "util/strings.h"

namespace procmine::obs {

namespace {

constexpr int64_t kSnapshotSchema = 1;
constexpr const char kNoParent[] = "none";

std::string HashHex(std::string_view bytes) {
  return StrFormat("%08x", Crc32c(bytes));
}

Result<std::string> ReadWholeFile(const std::string& path) {
  PROCMINE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return std::string(file.data());
}

Result<std::string> ParseName(const json::Value& strings, size_t index) {
  const json::Value& v = strings.items()[index];
  if (!v.is_string()) {
    return Status::InvalidArgument("snapshot: non-string activity name");
  }
  return v.AsString();
}

}  // namespace

std::string ModelSnapshot::ToJson() const {
  std::string out;
  out.reserve(512 + edges.size() * 64);
  out += "{\n";
  out += StrFormat("  \"snapshot_schema\": %lld,\n",
                   static_cast<long long>(kSnapshotSchema));
  out += StrFormat("  \"version\": %lld,\n", static_cast<long long>(version));
  out += "  \"parent_hash\": ";
  AppendJsonQuoted(&out, parent_hash.empty() ? std::string(kNoParent)
                                         : parent_hash);
  out += ",\n";
  out += "  \"window\": {\n";
  out += StrFormat("    \"index\": %lld,\n",
                   static_cast<long long>(window.index));
  out += StrFormat("    \"first_execution\": %lld,\n",
                   static_cast<long long>(window.first_execution));
  out += StrFormat("    \"last_execution\": %lld,\n",
                   static_cast<long long>(window.last_execution));
  out += StrFormat("    \"num_executions\": %lld,\n",
                   static_cast<long long>(window.num_executions));
  out += "    \"first_name\": ";
  AppendJsonQuoted(&out, window.first_name);
  out += ",\n    \"last_name\": ";
  AppendJsonQuoted(&out, window.last_name);
  out += "\n  },\n";
  out += StrFormat("  \"noise_threshold\": %lld,\n",
                   static_cast<long long>(noise_threshold));
  out += StrFormat("  \"epsilon\": %.6g,\n", epsilon);
  out += "  \"activities\": [";
  for (size_t i = 0; i < activities.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonQuoted(&out, activities[i]);
  }
  out += "],\n";
  out += "  \"edges\": [";
  for (size_t i = 0; i < edges.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"from\": ";
    AppendJsonQuoted(&out, edges[i].from);
    out += ", \"to\": ";
    AppendJsonQuoted(&out, edges[i].to);
    out += StrFormat(", \"support\": %lld}",
                     static_cast<long long>(edges[i].support));
  }
  out += edges.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Result<ModelSnapshot> ModelSnapshot::FromJson(std::string_view text) {
  PROCMINE_ASSIGN_OR_RETURN(json::Value root, json::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("snapshot: document is not an object");
  }
  PROCMINE_ASSIGN_OR_RETURN(int64_t schema, root.GetInt("snapshot_schema"));
  if (schema != kSnapshotSchema) {
    return Status::InvalidArgument(
        StrFormat("snapshot: unsupported snapshot_schema %lld",
                  static_cast<long long>(schema)));
  }
  ModelSnapshot snap;
  PROCMINE_ASSIGN_OR_RETURN(snap.version, root.GetInt("version"));
  PROCMINE_ASSIGN_OR_RETURN(snap.parent_hash, root.GetString("parent_hash"));
  const json::Value* window = root.Find("window");
  if (window == nullptr || !window->is_object()) {
    return Status::InvalidArgument("snapshot: missing window object");
  }
  PROCMINE_ASSIGN_OR_RETURN(snap.window.index, window->GetInt("index"));
  PROCMINE_ASSIGN_OR_RETURN(snap.window.first_execution,
                            window->GetInt("first_execution"));
  PROCMINE_ASSIGN_OR_RETURN(snap.window.last_execution,
                            window->GetInt("last_execution"));
  PROCMINE_ASSIGN_OR_RETURN(snap.window.num_executions,
                            window->GetInt("num_executions"));
  PROCMINE_ASSIGN_OR_RETURN(snap.window.first_name,
                            window->GetString("first_name"));
  PROCMINE_ASSIGN_OR_RETURN(snap.window.last_name,
                            window->GetString("last_name"));
  PROCMINE_ASSIGN_OR_RETURN(snap.noise_threshold,
                            root.GetInt("noise_threshold"));
  PROCMINE_ASSIGN_OR_RETURN(snap.epsilon, root.GetDouble("epsilon"));

  const json::Value* activities = root.Find("activities");
  if (activities == nullptr || !activities->is_array()) {
    return Status::InvalidArgument("snapshot: missing activities array");
  }
  snap.activities.reserve(activities->items().size());
  for (size_t i = 0; i < activities->items().size(); ++i) {
    PROCMINE_ASSIGN_OR_RETURN(std::string name, ParseName(*activities, i));
    snap.activities.push_back(std::move(name));
  }
  if (!std::is_sorted(snap.activities.begin(), snap.activities.end())) {
    return Status::InvalidArgument("snapshot: activities not sorted");
  }

  const json::Value* edges = root.Find("edges");
  if (edges == nullptr || !edges->is_array()) {
    return Status::InvalidArgument("snapshot: missing edges array");
  }
  snap.edges.reserve(edges->items().size());
  for (const json::Value& item : edges->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("snapshot: non-object edge");
    }
    SnapshotEdge edge;
    PROCMINE_ASSIGN_OR_RETURN(edge.from, item.GetString("from"));
    PROCMINE_ASSIGN_OR_RETURN(edge.to, item.GetString("to"));
    PROCMINE_ASSIGN_OR_RETURN(edge.support, item.GetInt("support"));
    if (!std::binary_search(snap.activities.begin(), snap.activities.end(),
                            edge.from) ||
        !std::binary_search(snap.activities.begin(), snap.activities.end(),
                            edge.to)) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: edge %s -> %s references an unlisted activity",
          edge.from.c_str(), edge.to.c_str()));
    }
    snap.edges.push_back(std::move(edge));
  }
  auto edge_less = [](const SnapshotEdge& a, const SnapshotEdge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  };
  if (!std::is_sorted(snap.edges.begin(), snap.edges.end(), edge_less)) {
    return Status::InvalidArgument("snapshot: edges not sorted");
  }
  return snap;
}

ProcessGraph ModelSnapshot::ToProcessGraph() const {
  // Vertex ids follow the (sorted) activities list so isolated activities
  // survive the round-trip; FromNamedEdges would drop them.
  std::unordered_map<std::string, NodeId> ids;
  ids.reserve(activities.size());
  for (size_t i = 0; i < activities.size(); ++i) {
    ids.emplace(activities[i], static_cast<NodeId>(i));
  }
  DirectedGraph graph(static_cast<NodeId>(activities.size()));
  for (const SnapshotEdge& edge : edges) {
    graph.AddEdge(ids.at(edge.from), ids.at(edge.to));
  }
  return ProcessGraph(std::move(graph), activities);
}

Result<ModelRegistry> ModelRegistry::Open(const std::string& dir) {
  PROCMINE_RETURN_NOT_OK(MakeDirs(dir, "registry"));
  ModelRegistry registry(dir);
  // Walk the contiguous chain v1, v2, ... and stop at the first version
  // that is missing, unparseable, or breaks the parent-hash chain. A crash
  // can only lose the newest (partially published) version, never corrupt
  // the prefix, so this recovers exactly the durable history.
  std::string parent_hash = kNoParent;
  for (int64_t v = 1;; ++v) {
    auto bytes = ReadWholeFile(registry.VersionPath(v));
    if (!bytes.ok()) break;
    auto snap = ModelSnapshot::FromJson(*bytes);
    if (!snap.ok()) break;
    if (snap->version != v || snap->parent_hash != parent_hash) break;
    parent_hash = HashHex(*bytes);
    registry.latest_version_ = v;
    registry.latest_hash_ = parent_hash;
  }
  return registry;
}

Result<int64_t> ModelRegistry::Append(ModelSnapshot snapshot) {
  snapshot.version = latest_version_ + 1;
  snapshot.parent_hash = latest_hash_;
  const std::string bytes = snapshot.ToJson();
  const std::string path = VersionPath(snapshot.version);
  PROCMINE_RETURN_NOT_OK(WriteFileAtomic(path, bytes));
  // The snapshot is durable from here on; CURRENT is an advisory pointer,
  // so in-memory state advances before (and regardless of) its update.
  latest_version_ = snapshot.version;
  latest_hash_ = HashHex(bytes);
  PROCMINE_RETURN_NOT_OK(WriteFileAtomic(
      dir_ + "/CURRENT",
      StrFormat("%lld %s\n", static_cast<long long>(latest_version_),
                latest_hash_.c_str())));
  return latest_version_;
}

Result<ModelSnapshot> ModelRegistry::Load(int64_t version) const {
  if (version < 1 || version > latest_version_) {
    return Status::NotFound(
        StrFormat("registry %s has no version %lld (latest %lld)",
                  dir_.c_str(), static_cast<long long>(version),
                  static_cast<long long>(latest_version_)));
  }
  PROCMINE_ASSIGN_OR_RETURN(std::string bytes,
                            ReadWholeFile(VersionPath(version)));
  PROCMINE_ASSIGN_OR_RETURN(ModelSnapshot snap,
                            ModelSnapshot::FromJson(bytes));
  if (snap.version != version) {
    return Status::DataLoss(
        StrFormat("registry %s: file %s claims version %lld", dir_.c_str(),
                  VersionPath(version).c_str(),
                  static_cast<long long>(snap.version)));
  }
  return snap;
}

Result<ModelSnapshot> ModelRegistry::LoadLatest() const {
  if (empty()) {
    return Status::NotFound(
        StrFormat("registry %s is empty", dir_.c_str()));
  }
  return Load(latest_version_);
}

Result<ModelDiff> ModelRegistry::DiffVersions(int64_t from_version,
                                              int64_t to_version) const {
  PROCMINE_ASSIGN_OR_RETURN(ModelSnapshot from, Load(from_version));
  PROCMINE_ASSIGN_OR_RETURN(ModelSnapshot to, Load(to_version));
  return DiffModels(from.ToProcessGraph(), to.ToProcessGraph());
}

std::vector<int64_t> ModelRegistry::Versions() const {
  std::vector<int64_t> versions;
  versions.reserve(static_cast<size_t>(latest_version_));
  for (int64_t v = 1; v <= latest_version_; ++v) versions.push_back(v);
  return versions;
}

std::string ModelRegistry::VersionPath(int64_t version) const {
  return StrFormat("%s/v%06lld.json", dir_.c_str(),
                   static_cast<long long>(version));
}

}  // namespace procmine::obs
