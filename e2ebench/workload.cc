// End-to-end synthesis benchmark, one workload per process.
//
//   e2e_workload --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --spill-dir <dir> [--trace-out <path prefix>]
//
// The process (1) builds a seeded instance with the data generators, fits it
// once through `KaminoEngine` and round-trips the model through the artifact
// form into the engine's registry, several times, reporting the median set-up
// time; (2) sends one untimed warm-up request; (3) serves a closed loop of
// synthesis requests from one client, by model id, each streamed through a
// `RowSink`, for `--seconds` (and at least the workload's sample size); (4)
// checks every request's output against properties the method must have,
// outside the timed windows; (5) prints every metric by name and, as the last
// line, one JSON object. All timings are taken here, around calls into the
// library's public API. `--trace 1` turns on the library's spans, wraps each
// call into a layer in a span of this file, and reports per-layer numbers
// instead of the end-to-end ones; it also writes `<prefix>.trace.json`
// (Chrome trace events, loadable in Perfetto) and `<prefix>.layers.tsv`.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/checks.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/eval/marginals.h"
#include "kamino/io/bytes.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/service/engine.h"
#include "kamino/store/spill_store.h"

namespace kamino::e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr size_t kInstanceRows = 9600;
constexpr double kEpsilon = 1.0;
constexpr double kDelta = 1e-6;
// Set-up is repeated and its median reported: one set-up is ~0.1 s, and its
// wall time swings with the machine's load phases.
constexpr int kSetupReps = 15;
constexpr int kNumericBins = 16;
constexpr size_t kTwoWayPairs = 10;
// Fixed, so every run scores the same attribute pairs.
constexpr uint64_t kPairSeed = 2024;
constexpr const char* kModelId = "bench-model";

struct Workload {
  const char* name;
  BenchmarkDataset (*make)(size_t n, uint64_t seed);
  size_t request_rows;
  size_t shards;
  size_t threads;
  bool out_of_core;  // also compressed chunks and collect_table = false
  size_t mcmc_resamples;
  // The first `sample_requests` timed requests feed the marginal and count
  // metrics, so those are a function of the seed alone; the timed loop
  // always runs at least this many.
  size_t sample_requests;
};

// Why these three: each layer an optimization is likely to touch does most
// of the work in one workload and little in another (see README.md).
const Workload kWorkloads[] = {
    // Paper-semantics sequential sampler: forward pass, candidate scoring,
    // FD/order index commits. No merge, spill or MCMC.
    {"adult-seq", MakeAdultLike, 2400, 1, 1, false, 0, 16},
    // Progressive prefix-frozen merge with out-of-core spill and compressed
    // delivery; 2 threads match the two-shard dispatch window.
    {"tax-ooc4", MakeTaxLike, 1200, 4, 2, true, 0, 8},
    // Soft DCs (one kGeneral, pair-scanned) with MCMC at ratio 1.
    {"br2000-mcmc", MakeBr2000Like, 600, 1, 1, false, 600, 12},
};

// Request i's sampling seed. Never 0: seed 0 would resume the fit's RNG
// snapshot instead of drawing an independent stream.
uint64_t RequestSeed(uint64_t workload_seed, uint64_t index) {
  const uint64_t s = io::Splitmix64(io::Splitmix64(workload_seed) ^ (index + 1));
  return s == 0 ? 1 : s;
}
constexpr uint64_t kWarmupIndex = 1u << 20;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The CPUs this process may run on, as it started.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &mask)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

// Restricts every thread of this process to `count` of its allowed CPUs,
// starting at the `first`-th (wrapping), or to all of them when `count` is
// 0. Set-ups and timed requests rotate over the CPUs so that each run samples
// every CPU alike: on a VM the virtual CPUs run at different speeds, and the
// scheduler keeps a thread on one of them for seconds at a time.
void PinProcess(size_t first, size_t count) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const size_t n = count == 0 ? cpus.size() : std::min(count, cpus.size());
  for (size_t k = 0; k < n; ++k) CPU_SET(cpus[(first + k) % cpus.size()], &mask);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof mask, &mask);
  }
}

bool DirIsEmpty(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_empty(dir, ec) && !ec;
}

// ---------------------------------------------------------------------------
// Set-up: instance -> DCs -> Fit -> artifact round trip -> registry.

struct Setup {
  std::unique_ptr<KaminoEngine> engine;
  BenchmarkDataset dataset;
  std::vector<WeightedConstraint> constraints;
  FittedModel model;  // the registered (deserialized) model
  double seconds = 0.0;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  size_t artifact_bytes = 0;
};

KaminoConfig FitConfig(const Workload& w, uint64_t seed, bool trace) {
  KaminoConfig config;
  config.epsilon = kEpsilon;
  config.delta = kDelta;
  config.options.seed = seed;
  // The repository's bench-scale training budget (bench/harness.cc).
  config.options.iterations = 40;
  config.options.embed_dim = 10;
  // Single-threaded: the fit is the same at any budget, and its
  // fine-grained parallel regions made set-up time swing run to run.
  config.options.num_threads = 1;
  config.options.mcmc_resamples = w.mcmc_resamples;
  config.options.enable_tracing = trace;
  return config;
}

Result<Setup> RunSetup(const Workload& w, uint64_t seed, bool trace) {
  Setup s;
  const Clock::time_point start = Clock::now();
  obs::TraceSpan setup_span("bench/setup");
  KaminoEngine::Options engine_options;
  engine_options.num_threads = 1;  // requests set their own budget
  engine_options.max_concurrent_jobs = 1;
  s.engine = std::make_unique<KaminoEngine>(engine_options);
  {
    obs::TraceSpan span("bench/generate_instance");
    s.dataset = w.make(kInstanceRows, seed);
  }
  {
    obs::TraceSpan span("bench/parse_dcs");
    KAMINO_ASSIGN_OR_RETURN(
        s.constraints, ParseConstraints(s.dataset.dc_specs, s.dataset.hardness,
                                        s.dataset.table.schema()));
  }
  FittedModel fitted;
  {
    obs::TraceSpan span("bench/fit");
    KAMINO_ASSIGN_OR_RETURN(
        fitted, s.engine->Fit(s.dataset.table, s.constraints,
                              FitConfig(w, seed, trace)));
  }
  std::vector<uint8_t> bytes;
  {
    obs::TraceSpan span("bench/artifact_save");
    KAMINO_ASSIGN_OR_RETURN(bytes, fitted.Serialize());
    s.save_seconds = span.Finish();
  }
  {
    obs::TraceSpan span("bench/artifact_load");
    KAMINO_ASSIGN_OR_RETURN(s.model, FittedModel::Deserialize(bytes));
    s.load_seconds = span.Finish();
  }
  {
    obs::TraceSpan span("bench/register");
    KAMINO_RETURN_IF_ERROR(s.engine->RegisterModel(kModelId, s.model));
  }
  setup_span.Finish();
  s.seconds = Seconds(start, Clock::now());
  s.artifact_bytes = bytes.size();

  // Untimed: the round trip must be byte-exact.
  KAMINO_ASSIGN_OR_RETURN(std::vector<uint8_t> again, s.model.Serialize());
  if (again != bytes) {
    return Status::Internal("artifact round trip is not byte-identical");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Requests.

// Keeps what the client received, and when the first chunk arrived.
struct RecordingSink final : RowSink {
  Status OnChunk(const TableChunk& chunk) override {
    if (chunks.empty()) first_chunk = Clock::now();
    DeliveredChunk d;
    d.shard = chunk.shard;
    d.row_offset = chunk.row_offset;
    d.num_rows = chunk.num_rows();
    d.last = chunk.last;
    if (chunk.compressed()) {
      d.encoded = chunk.encoded;
    } else {
      d.rows = chunk.rows;
    }
    chunks.push_back(std::move(d));
    return Status::OK();
  }

  std::vector<DeliveredChunk> chunks;
  Clock::time_point first_chunk;
};

struct RequestRun {
  SynthesisRequest request;
  Status status;
  double wall_seconds = 0.0;
  double first_chunk_seconds = 0.0;
  int64_t job_id = 0;
  SynthesisTelemetry telemetry;
  std::vector<DeliveredChunk> chunks;
  Table collected;
  bool spill_dir_clean = true;
  // Filled by CheckRequest.
  Table delivered;
  uint64_t digest = 0;
};

SynthesisRequest MakeRequest(const Workload& w, uint64_t seed) {
  SynthesisRequest r;
  r.num_rows = w.request_rows;
  r.seed = seed;
  r.num_shards = w.shards;
  r.num_threads = w.threads;
  r.compress_chunks = w.out_of_core;
  r.out_of_core = w.out_of_core;
  r.collect_table = !w.out_of_core;
  return r;
}

RequestRun RunRequest(KaminoEngine* engine, const SynthesisRequest& request,
                      const std::string& spill_dir) {
  RequestRun run;
  run.request = request;
  RecordingSink sink;
  SynthesisRequest r = request;
  r.sink = &sink;
  obs::TraceSpan span("bench/request");
  const Clock::time_point start = Clock::now();
  Result<std::shared_ptr<SynthesisJob>> job = engine->Submit(kModelId, r);
  Result<SynthesisResult> result =
      job.ok() ? job.value()->Wait()
               : Result<SynthesisResult>(job.status());
  const Clock::time_point end = Clock::now();
  if (job.ok()) {
    run.job_id = static_cast<int64_t>(job.value()->id());
    span.AddArg("job", run.job_id);
  }
  span.Finish();
  run.wall_seconds = Seconds(start, end);
  run.first_chunk_seconds =
      sink.chunks.empty() ? 0.0 : Seconds(start, sink.first_chunk);
  run.spill_dir_clean = DirIsEmpty(spill_dir);
  run.chunks = std::move(sink.chunks);
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  run.telemetry = result.value().telemetry;
  run.collected = std::move(result.value().synthetic);
  return run;
}

// The per-request property checks (see checks.h), plus the contracts of
// out-of-core delivery. Fills `run->delivered` and `run->digest`.
Status CheckRequest(const Setup& setup, RequestRun* run) {
  KAMINO_RETURN_IF_ERROR(run->status);
  const SynthesisRequest& req = run->request;
  KAMINO_RETURN_IF_ERROR(
      CheckChunkTiling(run->chunks, req.num_rows, req.num_shards));
  KAMINO_ASSIGN_OR_RETURN(
      run->delivered,
      AssembleChunks(run->chunks, setup.dataset.table.schema()));
  run->digest = TableDigest(run->delivered);
  KAMINO_RETURN_IF_ERROR(CheckDomains(run->delivered));
  KAMINO_RETURN_IF_ERROR(CheckHardDcs(run->delivered, setup.constraints));
  KAMINO_RETURN_IF_ERROR(CheckEpsilon(setup.model.epsilon_spent(), kEpsilon));
  if (req.collect_table) {
    KAMINO_RETURN_IF_ERROR(CheckSameDigest(
        run->digest, TableDigest(run->collected), "collected table"));
  }
  if (req.out_of_core) {
    const SynthesisTelemetry& t = run->telemetry;
    if (t.merge_penalty_frozen_row_scans != 0) {
      return Status::Internal("frozen rows were rescanned");
    }
    const size_t width = (req.num_rows + req.num_shards - 1) / req.num_shards;
    if (t.peak_resident_rows > static_cast<int64_t>(2 * width)) {
      return Status::Internal("peak resident rows " +
                              std::to_string(t.peak_resident_rows) +
                              " exceed two shard widths");
    }
    if (!run->spill_dir_clean) {
      return Status::Internal("spill directory not empty after the job");
    }
  }
  return Status::OK();
}

// Reruns of one request that must reproduce its digest: the same request
// again; on out-of-core workloads also a 1-thread rerun and an in-memory
// progressive rerun.
Status CheckReruns(const Setup& setup, const RequestRun& original,
                   const std::string& spill_dir) {
  std::vector<std::pair<std::string, SynthesisRequest>> reruns;
  reruns.emplace_back("rerun with the same seed and shards", original.request);
  if (original.request.out_of_core) {
    SynthesisRequest one_thread = original.request;
    one_thread.num_threads = 1;
    reruns.emplace_back("1-thread rerun", one_thread);
    SynthesisRequest in_memory = original.request;
    in_memory.out_of_core = false;
    in_memory.progressive_merge = true;
    in_memory.collect_table = true;
    reruns.emplace_back("in-memory progressive rerun", in_memory);
  }
  for (const auto& [what, request] : reruns) {
    RequestRun rerun = RunRequest(setup.engine.get(), request, spill_dir);
    KAMINO_RETURN_IF_ERROR(CheckRequest(setup, &rerun));
    KAMINO_RETURN_IF_ERROR(CheckSameDigest(original.digest, rerun.digest, what));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Trace analysis (traced runs only).

struct Interval {
  double begin_us = 0.0;
  double end_us = 0.0;
};

bool Within(const obs::TraceEvent& e, const Interval& iv) {
  return e.ts_us >= iv.begin_us && e.ts_us + e.dur_us <= iv.end_us;
}

// Duration minus the part of it covered by child spans on the same thread.
double SelfMicros(const obs::TraceEvent& parent,
                  const std::vector<obs::TraceEvent>& events) {
  std::vector<Interval> children;
  for (const obs::TraceEvent& e : events) {
    if (e.ph == 'X' && e.parent == parent.id && e.tid == parent.tid) {
      children.push_back({std::max(e.ts_us, parent.ts_us),
                          std::min(e.ts_us + e.dur_us,
                                   parent.ts_us + parent.dur_us)});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin_us < b.begin_us;
            });
  double covered = 0.0;
  double reach = parent.ts_us;
  for (const Interval& c : children) {
    const double b = std::max(c.begin_us, reach);
    if (c.end_us > b) {
      covered += c.end_us - b;
      reach = c.end_us;
    }
  }
  return parent.dur_us - covered;
}

const obs::TraceEvent* FindRequestSpan(
    const std::vector<obs::TraceEvent>& events, int64_t job_id) {
  for (const obs::TraceEvent& e : events) {
    if (e.name != "bench/request") continue;
    for (const auto& [key, value] : e.args) {
      if (key == "job" && value == job_id) return &e;
    }
  }
  return nullptr;
}

struct RequestSpans {
  double queue_wait = 0.0;
  double shard_self = 0.0;
  double chunk = 0.0;
  double prefix_merge = 0.0;
  double spill = 0.0;
};

RequestSpans SpansOf(const std::vector<obs::TraceEvent>& events,
                     int64_t job_id) {
  RequestSpans out;
  const obs::TraceEvent* req = FindRequestSpan(events, job_id);
  if (req == nullptr) return out;
  const Interval iv{req->ts_us, req->ts_us + req->dur_us};
  for (const obs::TraceEvent& e : events) {
    if (e.ph != 'X' || !Within(e, iv)) continue;
    if (e.name == "service/job") {
      out.queue_wait = 1e-6 * (e.ts_us - req->ts_us);
    } else if (e.name == "sampler/shard") {
      out.shard_self += 1e-6 * SelfMicros(e, events);
    } else if (e.name == "sampler/chunk") {
      out.chunk += 1e-6 * e.dur_us;
    } else if (e.name == "sampler/prefix_merge") {
      out.prefix_merge += 1e-6 * e.dur_us;
    } else if (e.name == "sampler/spill") {
      out.spill += 1e-6 * e.dur_us;
    }
  }
  return out;
}

double MedianSpanSeconds(const std::vector<obs::TraceEvent>& events,
                         const std::string& name) {
  std::vector<double> v;
  for (const obs::TraceEvent& e : events) {
    if (e.ph == 'X' && e.name == name) v.push_back(1e-6 * e.dur_us);
  }
  return Median(v);
}

// ---------------------------------------------------------------------------
// Metrics and output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("requests attempted %zu failed %zu\n", attempted, failed);
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Replays of each layer's public functions on the workload's own inputs and
// outputs, timed one layer at a time after the timed loop, single-threaded.
struct Replays {
  double forward_s = 0.0;
  int64_t forward_calls = 0;
  double index_commit_s = 0.0;
  double pair_scan_s = 0.0;
  double audit_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double chunk_bytes_per_row = 0.0;
  double append_s = 0.0;
  double read_s = 0.0;
};

Status RunReplays(const Setup& setup, const RequestRun& sample,
                  const std::string& spill_dir, Replays* out) {
  const Table& table = sample.delivered;
  const size_t n = table.num_rows();
  runtime::SetGlobalNumThreads(1);
  double sink = 0.0;  // consumes every result, so no replay is elided

  // nn: one forward pass per discriminative unit per delivered row.
  {
    obs::TraceSpan span("bench/nn_forward_replay");
    Row row;
    for (const ModelUnit& unit : setup.model.artifacts().model.units()) {
      if (unit.kind != ModelUnit::Kind::kDiscriminative) continue;
      for (size_t r = 0; r < n; ++r) {
        table.CopyRowInto(r, &row);
        if (unit.model->target_is_categorical()) {
          sink += unit.model->PredictCategorical(row)[0];
        } else {
          sink += unit.model->PredictGaussian(row).first;
        }
        ++out->forward_calls;
      }
    }
    out->forward_s = span.Finish();
  }

  // dc: index commits in row order (the subquadratic engines), incremental
  // pair scans (DCs without one), and a full count of each DC.
  {
    Row row;
    for (const WeightedConstraint& wc : setup.constraints) {
      if (wc.dc.is_unary() || wc.dc.Decompose().subquadratic()) {
        obs::TraceSpan span("bench/dc_index_commit_replay");
        std::unique_ptr<ViolationIndex> index = MakeViolationIndex(wc.dc);
        for (size_t r = 0; r < n; ++r) {
          table.CopyRowInto(r, &row);
          sink += static_cast<double>(index->CountNew(row));
          index->AddRow(row);
        }
        out->index_commit_s += span.Finish();
      } else {
        obs::TraceSpan span("bench/dc_pair_scan_replay");
        for (size_t r = 0; r < n; ++r) {
          table.CopyRowInto(r, &row);
          sink += static_cast<double>(CountNewViolations(wc.dc, row, table, r));
        }
        out->pair_scan_s += span.Finish();
      }
      obs::TraceSpan audit("bench/dc_audit_replay");
      sink += static_cast<double>(CountViolations(wc.dc, table));
      out->audit_s += audit.Finish();
    }
  }

  // data: the chunk codec over the delivered slices.
  std::vector<std::vector<uint8_t>> payloads;
  size_t encoded_bytes = 0;
  for (const DeliveredChunk& c : sample.chunks) {
    const Table slice = table.Slice(c.row_offset, c.num_rows);
    obs::TraceSpan enc("bench/data_encode_replay");
    payloads.push_back(EncodeChunkColumns(slice));
    out->encode_s += enc.Finish();
    encoded_bytes += payloads.back().size();
    obs::TraceSpan dec("bench/data_decode_replay");
    KAMINO_ASSIGN_OR_RETURN(Table decoded,
                            DecodeChunkColumns(table.schema(), payloads.back()));
    out->decode_s += dec.Finish();
    sink += static_cast<double>(decoded.num_rows());
  }
  out->chunk_bytes_per_row =
      n == 0 ? 0.0 : static_cast<double>(encoded_bytes) / n;

  // store: spill append + read of the same payloads, in the benchmark's
  // own spill directory.
  {
    KAMINO_ASSIGN_OR_RETURN(std::unique_ptr<store::SpillStore> spill,
                            store::SpillStore::Create(spill_dir));
    for (size_t i = 0; i < payloads.size(); ++i) {
      obs::TraceSpan span("bench/store_append_replay");
      KAMINO_RETURN_IF_ERROR(
          spill->AppendBlock(payloads[i], sample.chunks[i].num_rows));
      out->append_s += span.Finish();
    }
    for (size_t i = 0; i < payloads.size(); ++i) {
      obs::TraceSpan span("bench/store_read_replay");
      KAMINO_ASSIGN_OR_RETURN(Table back, spill->ReadBlock(i, table.schema()));
      out->read_s += span.Finish();
      sink += static_cast<double>(back.num_rows());
    }
  }
  if (std::isnan(sink)) std::fprintf(stderr, "replay produced NaN\n");
  return Status::OK();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spill_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--spill-dir") {
      args->spill_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->spill_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_workload --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --spill-dir <dir> "
                 "[--trace-out <prefix>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Spill stores under an empty hint live in $TMPDIR; point it at the
  // benchmark's own directory so it can check the directory is left empty.
  std::filesystem::create_directories(args.spill_dir);
  if (!DirIsEmpty(args.spill_dir)) {
    std::fprintf(stderr, "spill dir %s is not empty\n", args.spill_dir.c_str());
    return 2;
  }
  setenv("TMPDIR", args.spill_dir.c_str(), 1);
  AllowedCpus();  // records the CPU set before the timed loop pins threads
  const bool trace = args.trace == 1;
  if (trace) obs::TraceRecorder::Global().SetEnabled(true);

  // 1. Set-up, repeated; the last one serves.
  std::vector<double> setup_seconds;
  std::vector<double> save_seconds;
  std::vector<double> load_seconds;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.engine.reset();  // one engine at a time
    PinProcess(rep, 1);
    Result<Setup> s = RunSetup(*w, args.seed, trace);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    setup = std::move(s).TakeValue();
    setup_seconds.push_back(setup.seconds);
    save_seconds.push_back(setup.save_seconds);
    load_seconds.push_back(setup.load_seconds);
  }
  PinProcess(0, 0);
  std::printf("workload %s seed %llu: %zu-row instance, %zu DCs, "
              "epsilon spent %.4f of %.1f, artifact %zu bytes\n",
              w->name, static_cast<unsigned long long>(args.seed),
              setup.dataset.table.num_rows(), setup.constraints.size(),
              setup.model.epsilon_spent(), kEpsilon, setup.artifact_bytes);

  // 2. One untimed warm-up request (checked, counted as attempted).
  size_t failed = 0;
  bool correct = true;  // no delivered output failed a property check
  auto record_failure = [&](const RequestRun& run, const Status& st,
                            const std::string& what) {
    std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
                 st.ToString().c_str());
    ++failed;
    if (run.status.ok()) correct = false;
  };
  {
    RequestRun warmup =
        RunRequest(setup.engine.get(),
                   MakeRequest(*w, RequestSeed(args.seed, kWarmupIndex)),
                   args.spill_dir);
    const Status st = CheckRequest(setup, &warmup);
    if (!st.ok()) record_failure(warmup, st, "warm-up request");
  }

  // 3. The timed closed loop: one client sends the next request once the
  // last one returned and its output was checked. Checks run between
  // requests, outside the timed windows, and each output is dropped after
  // its check, so the process's memory is the library's. The loop ends
  // once the timed windows add up to --seconds and the sample requests
  // are served.
  struct Served {
    bool ok = false;
    double wall_seconds = 0.0;
    double first_chunk_seconds = 0.0;
    double cpu_seconds = 0.0;
    int64_t job_id = 0;
    SynthesisTelemetry telemetry;
  };
  std::vector<const WeightedConstraint*> soft;
  for (const WeightedConstraint& wc : setup.constraints) {
    if (!wc.hard) soft.push_back(&wc);
  }
  constexpr size_t kSoftSlots = 3;  // BR2000 has three soft DCs
  std::vector<std::vector<double>> soft_pct(kSoftSlots);
  std::vector<double> one_way;
  std::vector<double> two_way;
  std::vector<Served> served;
  RequestRun first;  // request 0, kept whole for its reruns and the replays
  double timed_seconds = 0.0;
  while (served.size() < w->sample_requests || timed_seconds < args.seconds) {
    const size_t i = served.size();
    PinProcess(i, w->threads);
    const double cpu_before = CpuSeconds();
    RequestRun run = RunRequest(
        setup.engine.get(), MakeRequest(*w, RequestSeed(args.seed, i)),
        args.spill_dir);
    Served s;
    s.cpu_seconds = CpuSeconds() - cpu_before;
    s.wall_seconds = run.wall_seconds;
    s.first_chunk_seconds = run.first_chunk_seconds;
    s.job_id = run.job_id;
    s.telemetry = run.telemetry;
    timed_seconds += run.wall_seconds;
    // The checks' pair scans use every core; the request's own budget and
    // its pool are restored before the next timed window opens.
    const Clock::time_point check_start = Clock::now();
    PinProcess(0, 0);
    runtime::SetGlobalNumThreads(0);
    const Status st = CheckRequest(setup, &run);
    const double check_seconds = Seconds(check_start, Clock::now());
    runtime::SetGlobalNumThreads(w->threads);
    runtime::GlobalThreadPool();
    std::fprintf(stderr,
                 "request %zu: %.4f s, first chunk %.4f s, checked in %.4f s\n",
                 i, run.wall_seconds, run.first_chunk_seconds, check_seconds);
    s.ok = st.ok();
    if (!st.ok()) {
      record_failure(run, st, "request " + std::to_string(i));
    } else if (i < w->sample_requests) {
      one_way.push_back(MeanOf(OneWayMarginalDistances(
          run.delivered, setup.dataset.table, kNumericBins)));
      Rng pairs(kPairSeed);
      two_way.push_back(MeanOf(TwoWayMarginalDistances(
          run.delivered, setup.dataset.table, kNumericBins, kTwoWayPairs,
          &pairs)));
      if (trace) {
        for (size_t k = 0; k < std::min(kSoftSlots, soft.size()); ++k) {
          soft_pct[k].push_back(
              ViolationRatePercent(soft[k]->dc, run.delivered));
        }
      }
    }
    if (i == 0) first = std::move(run);
    served.push_back(std::move(s));
  }
  if (served[0].ok) {
    const Status st = CheckReruns(setup, first, args.spill_dir);
    if (!st.ok()) {
      served[0].ok = false;
      record_failure(first, st, "request 0 reruns");
    }
  }
  const size_t attempted = served.size() + 1;

  // 4. Metrics.
  std::vector<double> walls;
  std::vector<double> firsts;
  double busy_wall = 0.0;
  double busy_cpu = 0.0;
  for (const Served& s : served) {
    if (!s.ok) continue;
    walls.push_back(s.wall_seconds);
    firsts.push_back(s.first_chunk_seconds);
    busy_wall += s.wall_seconds;
    busy_cpu += s.cpu_seconds;
  }
  const double median_wall = Median(walls);
  const double rows_per_s =
      median_wall > 0 ? static_cast<double>(w->request_rows) / median_wall
                      : 0.0;

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"rows_per_s", rows_per_s, "rows/s"},
        {"first_chunk_s", Median(firsts), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"marginal_1way_err", MeanOf(one_way), "fraction"},
        {"marginal_2way_err", MeanOf(two_way), "fraction"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Traced run: per-layer numbers.
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  std::vector<double> queue_wait, shard_self, chunk_s, merge_s, spill_s;
  for (const Served& s : served) {
    if (!s.ok) continue;
    const RequestSpans spans = SpansOf(events, s.job_id);
    queue_wait.push_back(spans.queue_wait);
    shard_self.push_back(spans.shard_self);
    chunk_s.push_back(spans.chunk);
    merge_s.push_back(spans.prefix_merge);
    spill_s.push_back(spans.spill);
  }
  // Counts are exact per request; average them over the sample requests.
  const size_t sample = std::min(w->sample_requests, served.size());
  auto mean_count = [&](auto field) {
    std::vector<double> v;
    for (size_t i = 0; i < sample; ++i) {
      v.push_back(static_cast<double>(served[i].telemetry.*field));
    }
    return MeanOf(v);
  };

  Replays replay;
  if (served[0].ok) {
    const Status st = RunReplays(setup, first, args.spill_dir, &replay);
    if (!st.ok()) {
      std::fprintf(stderr, "layer replay failed: %s\n", st.ToString().c_str());
      correct = false;
    }
  }

  metrics = {
      {"service.queue_wait_s", Median(queue_wait), "s"},
      {"fit.sequencing_s", MedianSpanSeconds(events, "fit/sequencing"), "s"},
      {"fit.parameter_search_s",
       MedianSpanSeconds(events, "fit/parameter_search"), "s"},
      {"fit.training_s", MedianSpanSeconds(events, "fit/training"), "s"},
      {"fit.weights_s", MedianSpanSeconds(events, "fit/weights"), "s"},
      {"io.artifact_save_s", Median(save_seconds), "s"},
      {"io.artifact_load_s", Median(load_seconds), "s"},
      {"io.artifact_bytes", static_cast<double>(setup.artifact_bytes),
       "bytes"},
      {"nn.forward_s", replay.forward_s, "s"},
      {"nn.forward_calls", static_cast<double>(replay.forward_calls),
       "count"},
      {"sampler.shard_s", Median(shard_self), "s"},
      {"sampler.chunk_s", Median(chunk_s), "s"},
      {"sampler.mcmc_resamples",
       mean_count(&SynthesisTelemetry::mcmc_resamples), "count"},
      {"sampler.fd_fast_path_hits",
       mean_count(&SynthesisTelemetry::fd_fast_path_hits), "count"},
      {"merge.prefix_merge_s", Median(merge_s), "s"},
      {"merge.live_row_scans",
       mean_count(&SynthesisTelemetry::merge_penalty_live_row_scans),
       "count"},
      {"merge.conflict_rows",
       mean_count(&SynthesisTelemetry::merge_conflict_rows), "count"},
      {"merge.resamples", mean_count(&SynthesisTelemetry::merge_resamples),
       "count"},
      {"merge.fd_rewrites",
       mean_count(&SynthesisTelemetry::merge_fd_rewrites), "count"},
      {"merge.order_alignments",
       mean_count(&SynthesisTelemetry::merge_order_alignments), "count"},
      {"dc.index_commit_s", replay.index_commit_s, "s"},
      {"dc.pair_scan_s", replay.pair_scan_s, "s"},
      {"dc.audit_s", replay.audit_s, "s"},
      {"dc.soft_violation_pct_0", MeanOf(soft_pct[0]), "%"},
      {"dc.soft_violation_pct_1", MeanOf(soft_pct[1]), "%"},
      {"dc.soft_violation_pct_2", MeanOf(soft_pct[2]), "%"},
      {"data.encode_s", replay.encode_s, "s"},
      {"data.decode_s", replay.decode_s, "s"},
      {"data.chunk_bytes_per_row", replay.chunk_bytes_per_row, "bytes"},
      {"store.spill_s", Median(spill_s), "s"},
      {"store.spill_bytes", mean_count(&SynthesisTelemetry::spill_bytes),
       "bytes"},
      {"store.peak_resident_rows",
       mean_count(&SynthesisTelemetry::peak_resident_rows), "rows"},
      {"store.append_s", replay.append_s, "s"},
      {"store.read_s", replay.read_s, "s"},
      {"runtime.cpu_per_wall", busy_wall > 0 ? busy_cpu / busy_wall : 0.0,
       "ratio"},
      // The traced run's own end-to-end numbers: against the untraced
      // run's, they show the tracing overhead.
      {"traced.setup_s", Median(setup_seconds), "s"},
      {"traced.rows_per_s", rows_per_s, "rows/s"},
      {"traced.first_chunk_s", Median(firsts), "s"},
  };

  if (!args.trace_out.empty()) {
    std::ofstream(args.trace_out + ".trace.json")
        << obs::TraceRecorder::Global().ToJson();
    std::ofstream layers(args.trace_out + ".layers.tsv");
    layers << "metric\tvalue\tunit\n";
    for (const Metric& m : metrics) {
      layers << m.name << '\t' << m.value << '\t' << m.unit << '\n';
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace kamino::e2ebench

int main(int argc, char** argv) {
  return kamino::e2ebench::Main(argc, argv);
}
