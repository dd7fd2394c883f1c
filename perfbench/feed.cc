// Closed-loop serve client: one connection per tenant, each sending its next
// batch only after the previous ack, the way the synchronous ServeClient is
// used. Times every batch (frame written -> ack read) and every query
// (frame written -> model text read), and checks each tenant's final model
// against its acked executions mined alone by IncrementalMiner.
//
// `pbench feed` prints "ready" once its batches are encoded and then waits
// for the server, so the caller can start the server afterwards and time
// set-up as server exec -> every tenant's session open (t_open_ns).

#include <csignal>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <latch>
#include <thread>

#include "pbench.h"
#include "serve/client.h"

namespace pbench {

using procmine::Result;
using procmine::serve::FrameType;
using procmine::serve::ResponseCode;
using procmine::serve::ResponseFrame;
using procmine::serve::ServeClient;

namespace {

/// Connects, retrying until the server accepts or `timeout_ms` passes.
Result<ServeClient> ConnectWithRetry(const std::string& socket,
                                     int64_t timeout_ms) {
  const int64_t deadline = MonotonicNs() + timeout_ms * 1000000;
  while (true) {
    Result<ServeClient> client = ServeClient::Connect(socket);
    if (client.ok() || MonotonicNs() > deadline) return client;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Opens (or re-attaches to) `session` with the default spec.
std::string OpenSession(ServeClient* client, const std::string& session) {
  Result<ResponseFrame> open = client->Call(
      FrameType::kOpen, session,
      procmine::serve::EncodeSessionSpec(procmine::serve::SessionSpec{}));
  if (!open.ok()) return open.status().ToString();
  if (open->code != ResponseCode::kOk) {
    return "open " + session + ": " +
           std::string(procmine::serve::ResponseCodeName(open->code)) + " " +
           open->detail;
  }
  return "";
}

struct TenantRun {
  Tenant tenant;
  Batches batches;
  std::vector<double> ack_ms;
  std::vector<double> query_ms;
  int64_t attempted = 0;  ///< open + batches + queries + final model check
  int64_t failed = 0;
  int64_t shed = 0;       ///< kOverloaded acks
  int64_t acked_executions = 0;
  int64_t open_ns = 0;  ///< when this tenant's session was open
  int64_t first_send_ns = 0;
  int64_t last_ack_ns = 0;
  std::vector<std::string> errors;

  void Fail(std::string error) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(error));
  }
};

/// One tenant's closed loop. `start` holds every tenant until all are
/// connected, so the loops overlap.
void FeedTenant(const std::string& socket, int64_t query_every,
                const std::string& models_dir, int64_t timeout_ms,
                std::latch* start, TenantRun* run) {
  const std::string& name = run->tenant.name;
  Result<ServeClient> client = ConnectWithRetry(socket, timeout_ms);
  std::string error = client.ok() ? OpenSession(&*client, name)
                                  : client.status().ToString();
  run->open_ns = MonotonicNs();
  start->arrive_and_wait();
  ++run->attempted;  // the open
  if (!error.empty()) {
    run->Fail(error);
    return;
  }
  if (run->batches.bytes.empty()) return;  // --open-only
  std::vector<bool> acked(run->batches.bytes.size(), false);
  run->first_send_ns = MonotonicNs();
  for (size_t i = 0; i < run->batches.bytes.size(); ++i) {
    ++run->attempted;
    const int64_t sent = MonotonicNs();
    Result<ResponseFrame> ack =
        client->Call(FrameType::kBatch, name, run->batches.bytes[i]);
    const int64_t done = MonotonicNs();
    if (!ack.ok()) {
      run->Fail("batch: " + ack.status().ToString());
      return;
    }
    run->ack_ms.push_back(static_cast<double>(done - sent) / 1e6);
    run->last_ack_ns = done;
    const int64_t size =
        static_cast<int64_t>(run->batches.logs[i].num_executions());
    if (ack->code == ResponseCode::kOverloaded) {
      ++run->shed;
      run->Fail("batch shed: " + ack->detail);
    } else if (ack->code != ResponseCode::kOk ||
               ack->applied_executions != size) {
      run->Fail("batch " + std::to_string(i) + ": " +
                std::string(procmine::serve::ResponseCodeName(ack->code)) +
                " applied=" + std::to_string(ack->applied_executions) + " " +
                ack->detail);
    } else {
      acked[i] = true;
      run->acked_executions += size;
    }
    if (query_every > 0 && (i + 1) % static_cast<size_t>(query_every) == 0) {
      ++run->attempted;
      const int64_t asked = MonotonicNs();
      Result<ResponseFrame> model = client->Call(FrameType::kQuery, name);
      const int64_t answered = MonotonicNs();
      if (!model.ok() || model->code != ResponseCode::kOk) {
        run->Fail("query: " + (model.ok() ? model->detail
                                          : model.status().ToString()));
      } else {
        run->query_ms.push_back(static_cast<double>(answered - asked) / 1e6);
      }
    }
  }

  // The final model must equal the acked executions mined alone.
  ++run->attempted;
  Result<ResponseFrame> model = client->Call(FrameType::kQuery, name);
  if (!model.ok() || model->code != ResponseCode::kOk) {
    run->Fail("final query: " +
              (model.ok() ? model->detail : model.status().ToString()));
    return;
  }
  procmine::IncrementalMiner reference;
  for (size_t i = 0; i < acked.size(); ++i) {
    if (!acked[i]) continue;
    procmine::Status added = reference.AddLog(run->batches.logs[i]);
    if (!added.ok()) {
      run->Fail("reference: " + added.ToString());
      return;
    }
  }
  Result<std::string> expected = CanonicalModelText(reference);
  if (!expected.ok() || *expected != model->body) {
    run->Fail("final model differs from the reference");
  }
  if (!models_dir.empty()) {
    std::ofstream(models_dir + "/" + name + ".txt", std::ios::binary)
        << model->body;
  }
}

}  // namespace

int RunFeed(const Flags& flags) {
  std::signal(SIGPIPE, SIG_IGN);
  Result<std::vector<Tenant>> tenants = ParseTenants(flags);
  if (!tenants.ok()) {
    std::fprintf(stderr, "pbench feed: %s\n", tenants.status().ToString().c_str());
    return 2;
  }
  const int64_t batch_executions = flags.GetInt("batch-executions", 100);
  const int64_t max_executions = flags.GetInt("max-executions", 0);
  std::vector<TenantRun> runs(tenants->size());
  for (size_t t = 0; t < runs.size(); ++t) runs[t].tenant = (*tenants)[t];
  if (!flags.Has("open-only")) {
    Result<std::vector<Batches>> batches = LoadTenantBatches(
        *tenants, batch_executions, max_executions);
    if (!batches.ok()) {
      std::fprintf(stderr, "pbench feed: %s\n",
                   batches.status().ToString().c_str());
      return 2;
    }
    for (size_t t = 0; t < runs.size(); ++t) {
      runs[t].batches = std::move((*batches)[t]);
    }
  }
  std::printf("ready\n");
  std::fflush(stdout);
  std::latch start(static_cast<std::ptrdiff_t>(runs.size()));
  std::vector<std::thread> threads;
  for (TenantRun& run : runs) {
    threads.emplace_back(FeedTenant, flags.Get("socket"),
                         flags.GetInt("query-every", 20),
                         flags.Get("models-dir"),
                         flags.GetInt("connect-timeout-ms", 30000), &start,
                         &run);
  }
  for (std::thread& thread : threads) thread.join();

  int64_t open = 0, first_send = 0, last_ack = 0;
  std::string tenant_json = "[";
  for (size_t t = 0; t < runs.size(); ++t) {
    const TenantRun& run = runs[t];
    if (run.first_send_ns > 0 &&
        (first_send == 0 || run.first_send_ns < first_send)) {
      first_send = run.first_send_ns;
    }
    last_ack = std::max(last_ack, run.last_ack_ns);
    open = std::max(open, run.open_ns);
    JsonObject item;
    item.Str("name", run.tenant.name);
    item.Int("batches", static_cast<int64_t>(run.batches.bytes.size()));
    item.Int("acked_executions", run.acked_executions);
    item.Int("attempted", run.attempted);
    item.Int("failed", run.failed);
    item.Int("shed", run.shed);
    item.Raw("ack_ms", JsonNumbers(run.ack_ms));
    item.Raw("query_ms", JsonNumbers(run.query_ms));
    item.Raw("errors", JsonStrings(run.errors));
    tenant_json += (t == 0 ? "" : ",") + item.Finish();
  }
  JsonObject out;
  out.Int("t_open_ns", open);
  out.Num("feed_wall_s", static_cast<double>(last_ack - first_send) / 1e9);
  out.Raw("tenants", tenant_json + "]");
  return Emit(flags.Get("out"), out.Finish());
}

int RunRecover(const Flags& flags) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::string models_dir = flags.Get("models-dir");
  std::vector<std::string> errors;
  std::vector<std::string> matched;
  Result<ServeClient> client = ConnectWithRetry(
      flags.Get("socket"), flags.GetInt("connect-timeout-ms", 30000));
  const std::vector<std::string> sessions = flags.GetAll("session");
  if (!client.ok()) {
    errors.push_back(client.status().ToString());
  } else {
    for (const std::string& session : sessions) {
      Result<ResponseFrame> model = client->Call(FrameType::kQuery, session);
      if (!model.ok() || model->code != ResponseCode::kOk) {
        errors.push_back("query " + session + ": " +
                         (model.ok() ? model->detail
                                     : model.status().ToString()));
      } else if (model->body !=
                 ReadBytes(models_dir + "/" + session + ".txt")) {
        errors.push_back("recovered model of " + session +
                         " differs from the model before the kill");
      } else {
        matched.push_back(session);
      }
    }
  }
  JsonObject out;
  out.Int("t_done_ns", MonotonicNs());
  out.Raw("matched", JsonStrings(matched));
  out.Raw("errors", JsonStrings(errors));
  return Emit(flags.Get("out"), out.Finish());
}

}  // namespace pbench
