// servebench: one process launch of the AlloyStack serving benchmark.
//
// run.py launches this binary several times per run and aggregates across
// launches (README.md has the workloads, the metric map and the output
// format). One launch builds its inputs from --seed, starts an in-process
// AsVisorRouter on the shipped defaults (default RouterOptions,
// ServingOptions, WorkflowOptions and WfdOptions, so the MPK backend is
// PkeyRuntime::DefaultBackend()), and drives closed-loop keep-alive HTTP
// load for --seconds. With --trace 1 it also drives the load with spans on,
// walks the layer ladder, times the WFD miss path and the data plane, and
// writes its spans out. The last stdout line is one JSON object.
//
//   servebench --workload W --seed N --seconds S --trace 0|1 --launch I
//              --out-dir D --t0-ns T [--traced-first 0|1]
//   servebench --probe live-wfd-limit
//   servebench --probe concurrent-dataflow --seed N --seconds S
//
// Every layer is timed from outside, through public calls: Orchestrator::Run,
// Wfd::{Create,CloneFromSnapshot,CaptureSnapshot,Reset}, AsVisorRouter::
// {Invoke,Dispatch}, Trampoline::EnterSystem, AsStd, and GET /metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/http_client.h"
#include "perfbench/span_log.h"
#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/core/visor/visor_router.h"
#include "src/core/wfd.h"
#include "src/workloads/alloystack_env.h"
#include "src/workloads/generic_apps.h"
#include "src/workloads/inputs.h"

namespace perfbench {
namespace {

using asbase::MonoNanos;

constexpr int kWcMappers = 4;
constexpr size_t kCorpusBytes = 1u << 20;
constexpr size_t kTenantFileBytes = 4096;
constexpr int kTenants = 16;
constexpr char kCorpusPath[] = "/corpus.txt";
constexpr char kTenantPath[] = "/tenant.bin";
constexpr char kDataflowName[] = "dataflow-wc";

// Time budget per ladder rung / miss-path loop in one launch, and sample
// caps. The warm rungs of edge-noop hit the cap; dataflow-wc's hit the
// budget (a wc request takes milliseconds).
constexpr int64_t kRungBudgetNanos = 300'000'000;
constexpr size_t kRungMinSamples = 12;
constexpr size_t kRungMaxSamples = 4000;
constexpr int kRungWarmup = 3;  // unrecorded calls before a rung's samples

// Inputs the benchmark-owned stage bodies write, set before any workflow
// runs and read-only afterwards.
std::vector<uint8_t> g_corpus;
std::vector<uint8_t> g_tenant_payload;

// ------------------------------------------------------------ statistics

int64_t Median(std::vector<int64_t> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double MedianUs(const std::vector<int64_t>& nanos) {
  return static_cast<double>(Median(nanos)) / 1e3;
}

double ReadVmHwmMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

struct Usage {
  int64_t cpu_us = 0;
  int64_t voluntary_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.cpu_us = ru.ru_utime.tv_sec * 1'000'000 + ru.ru_utime.tv_usec +
                 ru.ru_stime.tv_sec * 1'000'000 + ru.ru_stime.tv_usec;
  usage.voluntary_switches = ru.ru_nvcsw;
  return usage;
}

// ------------------------------------------------- benchmark-owned stages

uint64_t RequestId(const alloy::FunctionContext& ctx) {
  return static_cast<uint64_t>(ctx.params()["rid"].as_int(0));
}

// Times the ExecEnv data-plane callbacks the workload's functions use.
void WrapEnv(aswl::ExecEnv& env) {
  env.read_input = [inner = env.read_input](const std::string& path) {
    ScopedSpan span("asstd.read");
    auto bytes = inner(path);
    if (bytes.ok()) {
      span.set_bytes(static_cast<int64_t>(bytes->size()));
    }
    return bytes;
  };
  env.alloc = [inner = env.alloc](const std::string& slot, size_t size) {
    ScopedSpan span("alloc.alloc");
    span.set_bytes(static_cast<int64_t>(size));
    return inner(slot, size);
  };
  env.send = [inner = env.send](const std::string& slot,
                                aswl::EnvBuffer buffer) {
    ScopedSpan span("alloc.send");
    span.set_bytes(static_cast<int64_t>(buffer.data.size()));
    return inner(slot, std::move(buffer));
  };
  env.recv = [inner = env.recv](const std::string& slot) {
    ScopedSpan span("alloc.recv");
    auto buffer = inner(slot);
    if (buffer.ok()) {
      span.set_bytes(static_cast<int64_t>(buffer->data.size()));
    }
    return buffer;
  };
}

void RegisterFunctions() {
  auto& registry = alloy::FunctionRegistry::Global();
  registry.Register("pb.noop", [](alloy::FunctionContext& ctx) {
    ScopedSpan span("stage.noop", RequestId(ctx), RequestId(ctx));
    ctx.SetResult("ok");
    return asbase::OkStatus();
  });
  registry.Register(
      "pb.tenant", [](alloy::FunctionContext& ctx) -> asbase::Status {
        ScopedSpan span("stage.tenant", RequestId(ctx), RequestId(ctx));
        alloy::AsStd& as = ctx.as();
        {
          ScopedSpan write("asstd.write");
          write.set_bytes(static_cast<int64_t>(g_tenant_payload.size()));
          AS_RETURN_IF_ERROR(as.WriteWholeFile(kTenantPath, g_tenant_payload));
        }
        std::vector<uint8_t> back;
        {
          ScopedSpan read("asstd.read");
          AS_ASSIGN_OR_RETURN(back, as.ReadWholeFile(kTenantPath));
          read.set_bytes(static_cast<int64_t>(back.size()));
        }
        if (back != g_tenant_payload) {
          return asbase::DataLoss("tenant file read back differently");
        }
        ctx.SetResult(std::to_string(back.size()));
        return asbase::OkStatus();
      });
  registry.Register("pb.wc.upload", [](alloy::FunctionContext& ctx) {
    ScopedSpan span("stage.upload", RequestId(ctx), RequestId(ctx));
    ScopedSpan write("asstd.write");
    write.set_bytes(static_cast<int64_t>(g_corpus.size()));
    return ctx.as().WriteWholeFile(kCorpusPath, g_corpus);
  });
  // The WordCount map/reduce/collect bodies are the library's own; the
  // benchmark binds their ExecEnv itself so it can time the callbacks.
  static const char* const kStageSpans[] = {"stage.map", "stage.reduce",
                                            "stage.collect"};
  const aswl::GenericWorkflow wc = aswl::WordCountWorkflow(kWcMappers);
  for (size_t i = 0; i < wc.stages.size() && i < 3; ++i) {
    const aswl::GenericFunction& function = wc.stages[i].functions.at(0);
    registry.Register(
        "pb." + function.name,
        [body = function.fn, name = kStageSpans[i]](
            alloy::FunctionContext& ctx) -> asbase::Status {
          ScopedSpan span(name, RequestId(ctx), RequestId(ctx));
          aswl::ExecEnv env = aswl::BindAlloyStackEnv(ctx);
          if (SpanLog::Global().enabled()) {
            WrapEnv(env);
          }
          return body(env);
        });
  }
}

alloy::WorkflowSpec OneStage(const std::string& name, const std::string& fn) {
  alloy::WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(alloy::StageSpec{{alloy::FunctionSpec{fn, 1}}});
  return spec;
}

alloy::WorkflowSpec WordCountSpec() {
  alloy::WorkflowSpec spec = OneStage(kDataflowName, "pb.wc.upload");
  for (const char* fn : {"pb.wc.map", "pb.wc.reduce"}) {
    spec.stages.push_back(
        alloy::StageSpec{{alloy::FunctionSpec{fn, kWcMappers}}});
  }
  spec.stages.push_back(
      alloy::StageSpec{{alloy::FunctionSpec{"pb.wc.collect", 1}}});
  return spec;
}

// --------------------------------------------------------------- workloads

struct Workload {
  std::vector<alloy::WorkflowSpec> specs;  // one per tenant
  bool default_options = true;
  alloy::AsVisor::WorkflowOptions options;  // used when !default_options
  int connections = 1;
  std::string param_fields;  // JSON members every request carries
  std::string expected;      // the correct `result` of every request
  std::vector<size_t> order;  // seeded request order over specs

  std::string Body(uint64_t rid) const {
    std::string body = "{" + param_fields;
    if (rid != 0) {
      body += (param_fields.empty() ? "\"rid\":" : ",\"rid\":") +
              std::to_string(rid);
    }
    return body + "}";
  }
  asbase::Json Params(uint64_t rid) const {
    return asbase::Json::Parse(Body(rid)).value();
  }
  // The request the ladder drives: the first tenant in seeded order.
  const alloy::WorkflowSpec& LadderSpec() const { return specs[order[0]]; }
};

// Both inputs exist in every launch: the data-plane section of a traced run
// drives the dataflow-wc request whatever the workload.
void MakeInputs(uint64_t seed) {
  g_corpus = aswl::MakeTextCorpus(kCorpusBytes, seed);
  g_tenant_payload = aswl::MakePayload(kTenantFileBytes, seed ^ 0x7e4a47);
}

// Call MakeInputs first: the expected results derive from the inputs.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  if (name == "edge-noop") {
    w->specs.push_back(OneStage("edge-noop", "pb.noop"));
    w->connections = 2;
    w->expected = "ok";
  } else if (name == kDataflowName) {
    w->specs.push_back(WordCountSpec());
    w->connections = 1;
    w->param_fields = std::string("\"input\":\"") + kCorpusPath + "\"";
    w->expected = aswl::ExpectedWordCountResult(g_corpus);
  } else if (name == "cold-tenants") {
    for (int i = 0; i < kTenants; ++i) {
      char tenant[32];
      std::snprintf(tenant, sizeof(tenant), "tenant-%02d", i);
      w->specs.push_back(OneStage(tenant, "pb.tenant"));
    }
    w->default_options = false;
    w->options.pool_size = 0;
    w->connections = 4;
    w->expected = std::to_string(kTenantFileBytes);
  } else {
    return false;
  }
  w->order.resize(w->specs.size());
  std::iota(w->order.begin(), w->order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(w->order.begin(), w->order.end(), rng);
  return true;
}

// "result":"..." and "end_to_end_nanos":N from the visor's response body.
std::string ResultField(const std::string& body) {
  static const std::string kKey = "\"result\":\"";
  const size_t at = body.find(kKey);
  if (at == std::string::npos) {
    return "";
  }
  const size_t begin = at + kKey.size();
  const size_t end = body.find('"', begin);
  return end == std::string::npos ? "" : body.substr(begin, end - begin);
}

int64_t EndToEndField(const std::string& body) {
  static const std::string kKey = "\"end_to_end_nanos\":";
  const size_t at = body.find(kKey);
  return at == std::string::npos
             ? 0
             : std::strtoll(body.c_str() + at + kKey.size(), nullptr, 10);
}

// ------------------------------------------------------------ load phase

struct LoadResult {
  std::vector<int64_t> latency;  // client round trip, correct requests
  std::vector<int64_t> edge;     // round trip minus the visor's e2e time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t window_nanos = 0;
  std::string first_error;

  void Merge(LoadResult&& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    edge.insert(edge.end(), other.edge.begin(), other.edge.end());
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) {
      first_error = std::move(other.first_error);
    }
  }
};

// One closed-loop keep-alive connection: sends its next request only when
// the previous reply arrived, walking the tenants in seeded order from its
// own offset. Stops at `deadline` or after `max_requests`.
void ClientLoop(uint16_t port, const Workload& w, size_t conn,
                int64_t deadline, size_t max_requests, bool traced,
                LoadResult* out) {
  auto client = std::make_unique<HttpClient>(port);
  const size_t n = w.order.size();
  size_t k = conn * n / static_cast<size_t>(w.connections);
  std::vector<std::string> targets;
  for (const auto& spec : w.specs) {
    targets.push_back("/invoke/" + spec.name);
  }
  const std::string plain_body = w.Body(0);
  for (size_t sent = 0; sent < max_requests && MonoNanos() < deadline;
       ++sent) {
    const std::string& target = targets[w.order[k++ % n]];
    const uint64_t rid = traced ? SpanLog::Global().NextId() : 0;
    const std::string body = traced ? w.Body(rid) : plain_body;
    const int64_t t0 = MonoNanos();
    HttpReply reply = client->Post(target, body);
    const int64_t t1 = MonoNanos();
    ++out->attempted;
    if (traced) {
      SpanLog::Global().Add(SpanRecord{"client.request", rid, 0, rid, t0,
                                       t1 - t0,
                                       static_cast<int64_t>(body.size())});
    }
    const std::string result = reply.status == 200 ? ResultField(reply.body)
                                                   : std::string();
    if (reply.status == 200 && result == w.expected) {
      out->latency.push_back(t1 - t0);
      out->edge.push_back(t1 - t0 - EndToEndField(reply.body));
      continue;
    }
    ++out->failed;
    if (out->first_error.empty()) {
      out->first_error = target + " -> " + std::to_string(reply.status) +
                         " " + reply.body.substr(0, 200);
    }
    if (!client->connected()) {
      client = std::make_unique<HttpClient>(port);
      if (!client->connected()) {
        return;
      }
    }
  }
}

LoadResult DriveLoad(uint16_t port, const Workload& w, int64_t duration_nanos,
                     size_t max_requests, bool traced) {
  std::vector<LoadResult> per_conn(static_cast<size_t>(w.connections));
  const int64_t start = MonoNanos();
  const int64_t deadline = start + duration_nanos;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < per_conn.size(); ++c) {
    threads.emplace_back(ClientLoop, port, std::cref(w), c, deadline,
                         max_requests, traced, &per_conn[c]);
  }
  for (auto& t : threads) {
    t.join();
  }
  LoadResult total;
  total.window_nanos = MonoNanos() - start;
  for (auto& r : per_conn) {
    total.Merge(std::move(r));
  }
  return total;
}

bool WriteSamples(const std::string& path, const std::vector<int64_t>& v) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const size_t n = std::fwrite(v.data(), sizeof(int64_t), v.size(), f);
  return std::fclose(f) == 0 && n == v.size();
}

asbase::Json LoadJson(const LoadResult& r, const std::string& lat_file) {
  asbase::Json j;
  j.Set("attempted", static_cast<int64_t>(r.attempted));
  j.Set("failed", static_cast<int64_t>(r.failed));
  j.Set("correct", static_cast<int64_t>(r.latency.size()));
  j.Set("window_s", static_cast<double>(r.window_nanos) / 1e9);
  j.Set("lat_file", lat_file);
  j.Set("edge_overhead_us", MedianUs(r.edge));
  j.Set("first_error", r.first_error);
  return j;
}

// Sum of every series of `metric` (all label sets) in Prometheus text.
double SumSeries(const std::string& text, const std::string& metric) {
  double sum = 0;
  size_t pos = 0;
  while ((pos = text.find(metric, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const size_t after = pos + metric.size();
    pos = after;
    if (!line_start || after >= text.size() ||
        (text[after] != '{' && text[after] != ' ')) {
      continue;
    }
    const size_t eol = text.find('\n', after);
    const std::string line = text.substr(after, eol - after);
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

struct PoolCounters {
  double hits = 0;
  double misses = 0;
  double clones = 0;
};

PoolCounters ScrapePool(uint16_t port) {
  HttpClient client(port);
  const HttpReply reply = client.Get("/metrics");
  PoolCounters c;
  c.hits = SumSeries(reply.body, "alloy_visor_pool_hits_total");
  c.misses = SumSeries(reply.body, "alloy_visor_pool_misses_total");
  c.clones = SumSeries(reply.body, "alloy_visor_snapshot_clones_total");
  return c;
}

// ----------------------------------------------------------- ladder rungs

// Runs `fn` (which returns false on a wrong answer) for the rung budget,
// returning per-call nanoseconds. Each call is one span.
template <typename Fn>
std::vector<int64_t> SampleRung(const char* span_name, uint64_t* attempted,
                                uint64_t* failed, Fn&& fn) {
  std::vector<int64_t> samples;
  // Warm-up calls are not samples: they record no spans.
  const bool traced = SpanLog::Global().enabled();
  SpanLog::Global().set_enabled(false);
  for (int i = 0; i < kRungWarmup; ++i) {
    ++*attempted;
    if (!fn(0)) {
      ++*failed;
    }
  }
  SpanLog::Global().set_enabled(traced);
  const int64_t deadline = MonoNanos() + kRungBudgetNanos;
  while (samples.size() < kRungMaxSamples &&
         (samples.size() < kRungMinSamples || MonoNanos() < deadline)) {
    const uint64_t rid = traced ? SpanLog::Global().NextId() : 0;
    const int64_t t0 = MonoNanos();
    const bool ok = fn(rid);
    samples.push_back(MonoNanos() - t0);
    if (traced) {
      SpanLog::Global().Add(
          SpanRecord{span_name, rid, 0, rid, t0, samples.back(), 0});
    }
    ++*attempted;
    if (!ok) {
      ++*failed;
    }
  }
  return samples;
}

// Default WfdOptions pinned to the cores the owning shard pins its WFDs to.
alloy::WfdOptions PinnedLike(alloy::AsVisorRouter& router,
                             const std::string& workflow) {
  alloy::WfdOptions options;
  options.cpu_affinity = router.shard(router.ShardOf(workflow)).shard_cpus();
  return options;
}

struct Held {
  std::unique_ptr<alloy::Wfd> wfd;
  // Wfd::Create, then the first (cold) run + reset, which loads the LibOS
  // modules on demand.
  int64_t boot_nanos = 0;
};

// A WFD the benchmark holds, warmed by one run + reset like a pooled one.
// The cold run records no spans.
asbase::Result<Held> HoldWarm(const alloy::WfdOptions& options,
                              const alloy::WorkflowSpec& spec,
                              const asbase::Json& params) {
  Held held;
  const bool traced = SpanLog::Global().enabled();
  SpanLog::Global().set_enabled(false);
  const int64_t t0 = MonoNanos();
  auto wfd = alloy::Wfd::Create(options);
  asbase::Status status = wfd.status();
  if (status.ok()) {
    held.wfd = std::move(*wfd);
    alloy::Orchestrator orchestrator(held.wfd.get());
    status = orchestrator.Run(spec, params).status();
  }
  if (status.ok()) {
    status = held.wfd->Reset();
  }
  held.boot_nanos = MonoNanos() - t0;
  SpanLog::Global().set_enabled(traced);
  AS_RETURN_IF_ERROR(status);
  return held;
}

struct Traced {
  asbase::Json json{asbase::JsonObject{}};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;

  void Set(const std::string& key, double value) { json.Set(key, value); }
  void Fail(const std::string& what) {
    ++failed;
    if (error.empty()) {
      error = what;
    }
  }
};

// Ladder: Orchestrator::Run + Wfd::Reset on a held warm WFD, then
// AsVisorRouter::Invoke, AsVisorRouter::Dispatch, and a keep-alive POST,
// each driven alone with the workload's own request. Also the miss path
// (a full boot, CaptureSnapshot, CloneFromSnapshot, destroy) and the cost
// of an empty Trampoline::EnterSystem.
void RunLadder(alloy::AsVisorRouter& router, uint16_t port, const Workload& w,
               Traced* t) {
  const alloy::WorkflowSpec& spec = w.LadderSpec();
  const std::string expected = w.expected;
  const alloy::WfdOptions options = PinnedLike(router, spec.name);

  auto held_or = HoldWarm(options, spec, w.Params(0));
  if (!held_or.ok()) {
    t->Fail("hold warm WFD: " + held_or.status().ToString());
    return;
  }
  std::unique_ptr<alloy::Wfd> held = std::move(held_or->wfd);

  // Capture the template the clone loop boots from (the visor freezes its
  // first post-reset WFD the same way).
  const int64_t c0 = MonoNanos();
  auto snapshot = held->CaptureSnapshot();
  const int64_t capture_nanos = MonoNanos() - c0;
  if (!snapshot.ok()) {
    t->Fail("CaptureSnapshot: " + snapshot.status().ToString());
    return;
  }

  // Rung 1: Orchestrator::Run, then Reset, on the held WFD.
  std::vector<int64_t> reset;
  alloy::Orchestrator orchestrator(held.get());
  std::vector<int64_t> run = SampleRung(
      "rung.orchestrator", &t->attempted, &t->failed, [&](uint64_t rid) {
        auto stats = orchestrator.Run(spec, w.Params(rid));
        const int64_t r0 = MonoNanos();
        const bool reset_ok = held->Reset().ok();
        reset.push_back(MonoNanos() - r0);
        return stats.ok() && reset_ok && stats->result == expected;
      });
  // Drop the warm-up calls' resets, then take each reset out of the run
  // sample it was timed inside.
  reset.erase(reset.begin(), reset.begin() + kRungWarmup);
  for (size_t i = 0; i < run.size(); ++i) {
    run[i] -= reset[i];
  }

  std::vector<int64_t> enter;
  {
    asmpk::Trampoline& trampoline = held->trampoline();
    constexpr int kEnters = 100000;
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t e0 = MonoNanos();
      for (int i = 0; i < kEnters; ++i) {
        trampoline.EnterSystem([] {});
      }
      enter.push_back((MonoNanos() - e0) * 1000 / kEnters);  // picoseconds
    }
  }
  held.reset();

  // Rung 2: AsVisorRouter::Invoke (pool lease, run, reset, park, trace).
  std::vector<int64_t> invoke = SampleRung(
      "rung.invoke", &t->attempted, &t->failed, [&](uint64_t rid) {
        auto result = router.Invoke(spec.name, w.Params(rid));
        return result.ok() && result->run.result == expected;
      });

  // Rung 3: AsVisorRouter::Dispatch (admission + serving pool hop), no
  // socket.
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + spec.name;
  std::vector<int64_t> dispatch = SampleRung(
      "rung.dispatch", &t->attempted, &t->failed, [&](uint64_t rid) {
        request.body = w.Body(rid);
        const ashttp::HttpResponse response = router.Dispatch(request);
        return response.status == 200 &&
               ResultField(response.body) == expected;
      });

  // Rung 4: keep-alive POST over loopback, one connection.
  HttpClient client(port);
  std::vector<int64_t> http = SampleRung(
      "rung.http", &t->attempted, &t->failed, [&](uint64_t rid) {
        const HttpReply reply =
            client.Post(request.target, w.Body(rid));
        return reply.status == 200 && ResultField(reply.body) == expected;
      });

  // Miss path: clone boot from the captured template, then destroy.
  std::vector<int64_t> clone;
  std::vector<int64_t> destroy;
  const int64_t deadline = MonoNanos() + kRungBudgetNanos;
  while (clone.size() < kRungMaxSamples &&
         (clone.size() < kRungMinSamples || MonoNanos() < deadline)) {
    ScopedSpan span("miss.clone_destroy", 0, SpanLog::Global().NextId());
    const int64_t k0 = MonoNanos();
    auto cloned = alloy::Wfd::CloneFromSnapshot(options, *snapshot);
    const int64_t k1 = MonoNanos();
    if (!cloned.ok()) {
      t->Fail("CloneFromSnapshot: " + cloned.status().ToString());
      return;
    }
    cloned->reset();
    clone.push_back(k1 - k0);
    destroy.push_back(MonoNanos() - k1);
  }

  t->Set("orchestrator.run_us", MedianUs(run));
  t->Set("wfd.reset_us", MedianUs(reset));
  t->Set("visor.invoke_us", MedianUs(invoke));
  t->Set("router.dispatch_us", MedianUs(dispatch));
  t->Set("http.roundtrip_us", MedianUs(http));
  t->Set("ladder_samples", static_cast<double>(run.size()));
  t->Set("invoke_samples", static_cast<double>(invoke.size()));
  t->Set("dispatch_samples", static_cast<double>(dispatch.size()));
  t->Set("http_samples", static_cast<double>(http.size()));
  t->Set("wfd.clone_us", MedianUs(clone));
  t->Set("wfd.destroy_us", MedianUs(destroy));
  t->Set("clone_samples", static_cast<double>(clone.size()));
  // A full boot: what the cold first run cost beyond a warm run + reset.
  t->Set("wfd.create_ms",
         static_cast<double>(held_or->boot_nanos - Median(run) -
                             Median(reset)) / 1e6);
  t->Set("wfd.capture_ms", static_cast<double>(capture_nanos) / 1e6);
  t->Set("mpk.enter_ns", static_cast<double>(Median(enter)) / 1e3);
}

// Data plane: the dataflow-wc request on a held warm WFD pinned like its
// owning shard would pin it, with the stage bodies and ExecEnv wrappers
// recording spans; then the same request on an unpinned WFD, which shows
// what the shard's one-core slice costs the 4-way fan-out.
void RunDataPlane(alloy::AsVisorRouter& router, uint64_t seed, Traced* t) {
  Workload wc;
  MakeWorkload(kDataflowName, seed, &wc);
  const alloy::WorkflowSpec& spec = wc.specs[0];

  auto timed_runs = [&](const alloy::WfdOptions& options, const char* rung,
                        std::vector<alloy::RunStats>* stats_out) {
    std::vector<int64_t> samples;
    auto held = HoldWarm(options, spec, wc.Params(0));
    if (!held.ok()) {
      t->Fail("hold dataflow WFD: " + held.status().ToString());
      return samples;
    }
    alloy::Orchestrator orchestrator(held->wfd.get());
    samples = SampleRung(rung, &t->attempted, &t->failed, [&](uint64_t rid) {
      auto stats = orchestrator.Run(spec, wc.Params(rid));
      const bool ok = stats.ok() && held->wfd->Reset().ok() &&
                      stats->result == wc.expected;
      if (ok && stats_out != nullptr && rid != 0) {  // not a warm-up
        stats_out->push_back(*stats);
      }
      return ok;
    });
    return samples;
  };

  const size_t mark = SpanLog::Global().size();
  std::vector<alloy::RunStats> stats;
  timed_runs(PinnedLike(router, kDataflowName), "dataplane.run",
             &stats);
  const std::vector<SpanRecord> spans = SpanLog::Global().Since(mark);
  SpanLog::Global().set_enabled(false);
  std::vector<int64_t> unpinned =
      timed_runs(alloy::WfdOptions{}, "dataplane.unpinned", nullptr);
  SpanLog::Global().set_enabled(true);
  if (stats.empty()) {
    t->Fail("dataflow data plane produced no runs");
    return;
  }

  std::vector<int64_t> stage[4];
  std::vector<int64_t> enters;
  std::vector<int64_t> switches;
  std::vector<double> wait_frac;
  for (const alloy::RunStats& s : stats) {
    for (size_t i = 0; i < 4 && i < s.stage_nanos.size(); ++i) {
      stage[i].push_back(s.stage_nanos[i]);
    }
    enters.push_back(static_cast<int64_t>(s.trampoline_enters));
    switches.push_back(static_cast<int64_t>(s.pkru_switches));
    const alloy::PhaseTimings& p = s.phases;
    const double total = static_cast<double>(
        p.read_input_nanos + p.compute_nanos + p.transfer_nanos +
        p.wait_nanos);
    wait_frac.push_back(total > 0 ? p.wait_nanos / total : 0);
  }
  std::sort(wait_frac.begin(), wait_frac.end());

  int64_t write_nanos = 0, write_bytes = 0, read_nanos = 0, read_bytes = 0;
  int64_t send_nanos = 0, send_bytes = 0, sends = 0;
  std::vector<int64_t> recv;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "asstd.write") {
      write_nanos += s.dur_nanos;
      write_bytes += s.bytes;
    } else if (name == "asstd.read") {
      read_nanos += s.dur_nanos;
      read_bytes += s.bytes;
    } else if (name == "alloc.alloc") {
      send_nanos += s.dur_nanos;  // the producer's half of a send
    } else if (name == "alloc.send") {
      send_nanos += s.dur_nanos;
      send_bytes += s.bytes;
      ++sends;
    } else if (name == "alloc.recv") {
      recv.push_back(s.dur_nanos);
    }
  }
  const double mib = 1024.0 * 1024.0;
  const double requests = static_cast<double>(stats.size());
  static const char* const kStages[] = {"upload", "map", "reduce", "collect"};
  for (int i = 0; i < 4; ++i) {
    t->Set(std::string("orchestrator.stage_us.") + kStages[i],
           MedianUs(stage[i]));
  }
  t->Set("orchestrator.fanin_wait_frac", wait_frac[wait_frac.size() / 2]);
  t->Set("orchestrator.run_unpinned_us", MedianUs(unpinned));
  t->Set("asstd.write_mib_s",
         write_nanos > 0 ? write_bytes / mib / (write_nanos / 1e9) : 0);
  t->Set("asstd.read_mib_s",
         read_nanos > 0 ? read_bytes / mib / (read_nanos / 1e9) : 0);
  t->Set("alloc.send_us", sends > 0 ? send_nanos / 1e3 / sends : 0);
  t->Set("alloc.recv_us", MedianUs(recv));
  t->Set("alloc.bytes_per_req", send_bytes / requests);
  t->Set("mpk.enters_per_req", static_cast<double>(Median(enters)));
  t->Set("mpk.pkru_switches_per_req", static_cast<double>(Median(switches)));
  t->Set("dataplane_samples", requests);
}

// ------------------------------------------------------------------ probes

// How many WFDs can be alive at once before Wfd::Create fails.
int ProbeLiveWfdLimit() {
  std::vector<std::unique_ptr<alloy::Wfd>> live;
  std::string error;
  constexpr size_t kCap = 64;
  while (live.size() < kCap) {
    auto wfd = alloy::Wfd::Create(alloy::WfdOptions{});
    if (!wfd.ok()) {
      error = wfd.status().ToString();
      break;
    }
    live.push_back(std::move(*wfd));
  }
  asbase::Json out;
  out.Set("live_wfd_limit", static_cast<int64_t>(live.size()));
  out.Set("error", error);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// Two concurrent callers of dataflow-wc on the shipped defaults. Exits 0
// when both finish; a protection-key fault kills the process instead.
int ProbeConcurrentDataflow(uint64_t seed, double seconds) {
  MakeInputs(seed);
  Workload w;
  MakeWorkload(kDataflowName, seed, &w);
  alloy::AsVisorRouter router;
  router.RegisterWorkflow(w.specs[0]);
  const int64_t deadline =
      MonoNanos() + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      while (MonoNanos() < deadline) {
        auto result = router.Invoke(kDataflowName, w.Params(0));
        if (result.ok() && result->run.result == w.expected) {
          ++completed;
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  asbase::Json out;
  out.Set("completed", completed.load());
  out.Set("failed", failed.load());
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::string probe;
  uint64_t seed = 1;
  double seconds = 3;
  bool trace = false;
  bool traced_first = false;
  int launch = 0;
  int64_t t0_nanos = 0;
  std::string out_dir = ".";
  std::string section = "load";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--probe") {
      a->probe = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a->trace = std::atoi(value) != 0;
    } else if (key == "--traced-first") {
      a->traced_first = std::atoi(value) != 0;
    } else if (key == "--launch") {
      a->launch = std::atoi(value);
    } else if (key == "--t0-ns") {
      a->t0_nanos = std::strtoll(value, nullptr, 10);
    } else if (key == "--out-dir") {
      a->out_dir = value;
    } else if (key == "--section") {
      a->section = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && a->seconds > 0;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  return 1;
}

void RegisterAll(const Workload& w, alloy::AsVisorRouter& router) {
  for (const auto& spec : w.specs) {
    if (w.default_options) {
      router.RegisterWorkflow(spec);
    } else {
      router.RegisterWorkflow(spec, w.options);
    }
  }
}

void PrintResult(asbase::Json out, const Args& a, uint64_t attempted,
                 uint64_t failed) {
  out.Set("workload", a.workload);
  out.Set("section", a.section);
  out.Set("launch", static_cast<int64_t>(a.launch));
  out.Set("attempted", static_cast<int64_t>(attempted));
  out.Set("failed", static_cast<int64_t>(failed));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

std::string OutPrefix(const Args& a) {
  return a.out_dir + "/" + a.workload + "-l" + std::to_string(a.launch) +
         "-" + a.section;
}

// Section "load": set-up, then closed-loop keep-alive load; with --trace 1
// the load runs twice, untraced and traced, in the order --traced-first
// gives, each for half of --seconds.
int RunLoadSection(const Args& a, const Workload& w) {
  const int64_t t0 = a.t0_nanos > 0 ? a.t0_nanos : MonoNanos();
  alloy::AsVisorRouter router;
  RegisterAll(w, router);
  asbase::Status started = router.StartWatchdog(0);
  if (!started.ok()) {
    return Fail("StartWatchdog: " + started.ToString());
  }
  const uint16_t port = router.watchdog_port();

  // Set-up ends once one connection has had a correct answer from every
  // tenant, which boots each tenant once and captures its snapshot
  // template, and then every connection has had one from every tenant,
  // which fills the warm pools. The first pass is serial so concurrent
  // first requests never race to boot the same tenant.
  Workload serial = w;
  serial.connections = 1;
  LoadResult first = DriveLoad(port, serial, 60'000'000'000, w.specs.size(),
                               /*traced=*/false);
  LoadResult warm = DriveLoad(port, w, 60'000'000'000, w.specs.size(),
                              /*traced=*/false);
  warm.Merge(std::move(first));
  if (warm.failed != 0 || warm.latency.empty()) {
    return Fail("warm-up failed: " + warm.first_error);
  }
  const double setup_s = static_cast<double>(MonoNanos() - t0) / 1e9;

  const std::string prefix = OutPrefix(a);
  const int64_t phase_nanos =
      static_cast<int64_t>(a.seconds * 1e9 / (a.trace ? 2 : 1));

  asbase::Json out;
  out.Set("shards", static_cast<int64_t>(router.shard_count()));
  out.Set("mpk_backend",
          asmpk::MpkBackendName(asmpk::PkeyRuntime::DefaultBackend()));
  out.Set("setup_s", setup_s);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool written = true;
  auto untraced_phase = [&] {
    const PoolCounters pool0 = ScrapePool(port);
    const Usage u0 = ProcessUsage();
    LoadResult load = DriveLoad(port, w, phase_nanos, SIZE_MAX, false);
    const Usage u1 = ProcessUsage();
    out.Set("rss_mib", ReadVmHwmMib());
    const PoolCounters pool1 = ScrapePool(port);
    asbase::Json j = LoadJson(load, prefix + "-untraced.bin");
    written &= WriteSamples(prefix + "-untraced.bin", load.latency);
    j.Set("cpu_us", static_cast<int64_t>(u1.cpu_us - u0.cpu_us));
    j.Set("voluntary_switches",
          static_cast<int64_t>(u1.voluntary_switches - u0.voluntary_switches));
    j.Set("pool_hits", pool1.hits - pool0.hits);
    j.Set("pool_misses", pool1.misses - pool0.misses);
    j.Set("snapshot_clones", pool1.clones - pool0.clones);
    attempted += load.attempted;
    failed += load.failed;
    out.Set("load", std::move(j));
  };
  auto traced_phase = [&] {
    SpanLog::Global().set_enabled(true);
    LoadResult load = DriveLoad(port, w, phase_nanos, SIZE_MAX, true);
    SpanLog::Global().set_enabled(false);
    written &= WriteSamples(prefix + "-traced.bin", load.latency);
    attempted += load.attempted;
    failed += load.failed;
    out.Set("traced_load", LoadJson(load, prefix + "-traced.bin"));
  };

  if (a.trace && a.traced_first) {
    traced_phase();
  }
  untraced_phase();
  if (a.trace && !a.traced_first) {
    traced_phase();
  }
  router.StopWatchdog();
  if (!written) {
    return Fail("could not write latency samples under " + a.out_dir);
  }
  if (a.trace) {
    const std::string spans_file = prefix + "-spans.json";
    if (!SpanLog::Global().WriteChromeTrace(spans_file, a.launch)) {
      return Fail("could not write " + spans_file);
    }
    out.Set("spans_file", spans_file);
  }
  PrintResult(std::move(out), a, attempted, failed);
  return 0;
}

// Sections "ladder" and "dataplane" run in processes of their own, on a
// fresh router: a wc run in a WFD next to other live WFDs can hit the
// hardware-MPK fault the concurrent-dataflow probe counts, and the load
// section's pools would be those other WFDs.
int RunLayerSection(const Args& a, const Workload& w) {
  alloy::AsVisorRouter router;
  Traced t;
  SpanLog::Global().set_enabled(true);
  if (a.section == "ladder") {
    RegisterAll(w, router);
    asbase::Status started = router.StartWatchdog(0);
    if (!started.ok()) {
      return Fail("StartWatchdog: " + started.ToString());
    }
    RunLadder(router, router.watchdog_port(), w, &t);
    router.StopWatchdog();
  } else {
    RunDataPlane(router, a.seed, &t);
  }
  SpanLog::Global().set_enabled(false);
  if (!t.error.empty()) {
    return Fail(a.section + " section: " + t.error);
  }
  asbase::Json out;
  out.Set("layers", std::move(t.json));
  const std::string spans_file = OutPrefix(a) + "-spans.json";
  if (!SpanLog::Global().WriteChromeTrace(spans_file, a.launch)) {
    return Fail("could not write " + spans_file);
  }
  out.Set("spans_file", spans_file);
  PrintResult(std::move(out), a, t.attempted, t.failed);
  return 0;
}

int RunLaunch(const Args& a) {
  MakeInputs(a.seed);
  Workload w;
  if (!MakeWorkload(a.workload, a.seed, &w)) {
    return Fail("unknown workload '" + a.workload + "'");
  }
  if (a.section == "load") {
    return RunLoadSection(a, w);
  }
  if (a.section == "ladder" || a.section == "dataplane") {
    return RunLayerSection(a, w);
  }
  return Fail("unknown section '" + a.section + "'");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Fail(
        "usage: servebench --workload W --seed N --seconds S --trace 0|1 "
        "[--section load|ladder|dataplane --launch I --out-dir D --t0-ns T "
        "--traced-first 0|1] | "
        "--probe live-wfd-limit | --probe concurrent-dataflow");
  }
  perfbench::RegisterFunctions();
  if (args.probe == "live-wfd-limit") {
    return perfbench::ProbeLiveWfdLimit();
  }
  if (args.probe == "concurrent-dataflow") {
    return perfbench::ProbeConcurrentDataflow(args.seed, args.seconds);
  }
  if (!args.probe.empty()) {
    return perfbench::Fail("unknown probe '" + args.probe + "'");
  }
  return perfbench::RunLaunch(args);
}
