// perfbench: the end-to-end benchmark of the weavess serving paths.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--passes P] [--build-threads T]
//
// Workloads (README.md explains why each exists):
//   serve-nsg-sift   NSG over a 128-d base, two saved replicas opened from a
//                    replica-set manifest, queried through ReplicaSet::Serve.
//   serve-sq8-msong  SQ8:HNSW over a 420-d base, saved graph + SQ8 codes,
//                    queried through ServingEngine::Serve.
//   churn-hnsw-sift  a 4-shard MutableShardedIndex served by ServingEngine,
//                    one client interleaving ServeMutation writes with Serve
//                    queries, periodic Commit and CompactShard, then a
//                    close-and-reopen recovery check.
//
// Base and query vectors come from GenerateSynthetic seeded by --seed; the
// program only ever sees the generated vectors. All load is one client in a
// closed loop on the calling thread. Every program call is timed from here,
// around the module's public function; with --trace 1 each call is also
// recorded as a span (name, start, end, parent, request id) that stays in
// memory and is written to DIR/trace-<workload>.jsonl at exit.
//
// Output: human-readable lines starting with "# ", then one JSON line
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Any failed correctness check
// makes the exit code 1; a usage or setup error exits 2.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/registry.h"
#include "core/dataset.h"
#include "core/distance.h"
#include "core/graph_io.h"
#include "core/index.h"
#include "core/rng.h"
#include "eval/ground_truth.h"
#include "eval/synthetic.h"
#include "graph/nn_descent.h"
#include "quant/quant_io.h"
#include "quant/quantized_index.h"
#include "quant/sq8.h"
#include "search/engine.h"
#include "search/loaded_index.h"
#include "search/replica_set.h"
#include "search/serving.h"
#include "shard/mutable_index.h"
#include "shard/replica_manifest.h"

namespace {

using weavess::Dataset;
using weavess::QueryStats;
using weavess::SearchParams;
using weavess::Status;

namespace fs = std::filesystem;

constexpr uint32_t kK = 10;
constexpr uint32_t kSetupReps = 3;
constexpr uint32_t kBuildThreads = 2;
constexpr uint32_t kTracedReps = 24;
// Recall@10 floors, a few points under what every seed measured (README.md).
constexpr double kRecallFloorNsg = 0.90;
constexpr double kRecallFloorSq8 = 0.95;
constexpr double kRecallFloorChurn = 0.95;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2.0;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// ---------------------------------------------------------------------------
// Spans. The traced run records one span around every program call the
// benchmark makes; untraced runs keep the log disabled so Begin/End cost a
// branch. Parents come from the benchmark's own nesting (a setup rep holds
// its build, save and open calls), and request ids tie a query's spans
// together across layer passes.

class SpanLog {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t request;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  uint32_t Begin(const char* name, uint64_t request) {
    if (!enabled_) return kNone;
    const uint32_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({name, NowNs(), 0, parent, request});
    const auto id = static_cast<uint32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  void End(uint32_t id) {
    if (id == kNone) return;
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }

  /// Durations in seconds of every closed span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

  double MedianSeconds(const std::string& name) const {
    return Median(Durations(name));
  }

  /// Per span name: {count, total seconds, self seconds}, where self time is
  /// a span's duration minus the part its child spans cover.
  struct Ledger {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Ledger> SelfTimes() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Ledger> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Ledger& entry = out[s.name];
      ++entry.count;
      entry.total_s += (s.end_ns - s.start_ns) * 1e-9;
      entry.self_s += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  size_t size() const { return spans_.size(); }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t request = 0)
      : log_(log), id_(log.Begin(name, request)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  uint32_t id_;
};

// ---------------------------------------------------------------------------
// Results and correctness bookkeeping.

struct Report {
  // Metric values by name; units live in kEndToEnd / kPerLayer.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  /// A setup or bookkeeping check: counts as a failed operation.
  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void ExpectOk(const Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
};

/// Every result list must hold min(k, live) ids, be sorted by exact distance
/// to the query, and be duplicate-free. `row_of` maps a returned id to its
/// vector (nullptr = unknown or not live).
template <typename RowOf>
bool CheckResultList(const std::vector<uint32_t>& ids, const float* query,
                     uint32_t dim, size_t expected_size, RowOf row_of,
                     std::string* why) {
  if (ids.size() != expected_size) {
    *why = "result has " + std::to_string(ids.size()) + " ids, expected " +
           std::to_string(expected_size);
    return false;
  }
  float previous = -1.0f;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (ids[j] == ids[i]) {
        *why = "duplicate id " + std::to_string(ids[i]);
        return false;
      }
    }
    const float* row = row_of(ids[i]);
    if (row == nullptr) {
      *why = "id " + std::to_string(ids[i]) + " is not live";
      return false;
    }
    const float d = weavess::L2Sqr(query, row, dim);
    if (d < previous) {
      *why = "results not sorted by distance";
      return false;
    }
    previous = d;
  }
  return true;
}

/// Rows [begin, begin + count) of `data` as their own dataset.
Dataset Slice(const Dataset& data, uint32_t begin, uint32_t count) {
  Dataset out = Dataset::Zeros(count, data.dim());
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(out.MutableRow(i), data.Row(begin + i),
                sizeof(float) * data.dim());
  }
  return out;
}

/// FNV-1a over the query rows: the self-test uses it to tell query streams
/// apart.
void PrintQueryDigest(const Dataset& queries) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(queries.Row(q));
    for (size_t i = 0; i < sizeof(float) * queries.dim(); ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::printf("# query stream digest %016llx\n",
              static_cast<unsigned long long>(hash));
}

// ---------------------------------------------------------------------------
// Host calibration. A pure-compute spin runs on 1 thread and on nproc
// threads; effective parallelism = nproc * t(1) / t(nproc). The spin first
// runs on every core for a while, which doubles as warm-up: on shared hosts
// multi-thread spins run at 1x for their first fraction of a second.

/// Keeps timed work observable so the compiler cannot drop it.
std::atomic<uint64_t> g_sink{0};
void Consume(uint64_t value) {
  g_sink.fetch_xor(value, std::memory_order_relaxed);
}

uint64_t SpinWork(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeSpin(uint32_t threads, uint64_t iterations) {
  std::vector<uint64_t> sinks(threads * 8, 0);
  const int64_t start = NowNs();
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&sinks, t, iterations] {
      sinks[t * 8] = SpinWork(iterations, t + 1);
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = (NowNs() - start) * 1e-9;
  for (uint64_t s : sinks) Consume(s);
  return seconds;
}

struct HostProbe {
  uint32_t threads = 1;
  // The 1-thread spin: a slower reading means a slower core for this run
  // (other tenants, clock), which moves every timing with it.
  double single_s = 0.0;
  double effective_parallelism = 1.0;
};

HostProbe CalibrateHost() {
  HostProbe probe;
  probe.threads = std::max(1u, std::thread::hardware_concurrency());
  // Warm-up: all cores busy for ~0.6 s.
  const int64_t warm_until = NowNs() + 600'000'000;
  while (NowNs() < warm_until) TimeSpin(probe.threads, 2'000'000);
  constexpr uint64_t kIterations = 40'000'000;
  probe.single_s = TimeSpin(1, kIterations);
  const double all = TimeSpin(probe.threads, kIterations);
  probe.effective_parallelism =
      all > 0.0 ? probe.threads * probe.single_s / all : 0.0;
  return probe;
}

uint64_t ReadCacheBytes(uint32_t level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream type_file(dir + "/type");
    std::ifstream size_file(dir + "/size");
    uint32_t found = 0;
    std::string type;
    std::string size;
    if (!(level_file >> found) || !(type_file >> type) ||
        !(size_file >> size)) {
      continue;
    }
    if (found != level || type == "Instruction") continue;
    uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'K') bytes <<= 10;
    if (!size.empty() && size.back() == 'M') bytes <<= 20;
    return bytes;
  }
  return 0;
}

void PrintWorkingSet(const Dataset& base, uint64_t code_bytes,
                     uint64_t graph_bytes) {
  // MutableShardedIndex does not expose its size: graph_bytes 0 = unknown.
  const std::string graph =
      graph_bytes == 0 ? "n/a" : std::to_string(graph_bytes) + " B";
  std::printf(
      "# working set: n=%u dim=%u float_rows=%llu B codes=%llu B "
      "index=%s | L2=%llu B L3=%llu B\n",
      base.size(), base.dim(),
      static_cast<unsigned long long>(base.MemoryBytes()),
      static_cast<unsigned long long>(code_bytes), graph.c_str(),
      static_cast<unsigned long long>(ReadCacheBytes(2)),
      static_cast<unsigned long long>(ReadCacheBytes(3)));
}

// ---------------------------------------------------------------------------
// Arguments and shared workload plumbing.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  // Saved indexes: out_dir/work-<workload>, removed at exit.
  std::string work_dir;
  /// 0: run for `seconds`. >0: run exactly this many passes/windows, which
  /// makes every count deterministic (the self-test uses it).
  uint32_t passes = 0;
  uint32_t build_threads = kBuildThreads;
};

/// Base and query rows for a workload: the Table 3 stand-in `stand_in`
/// (SIFT1M: 128-d, Msong: 420-d) generated with num_base + 1000 rows, whose
/// rows the seed shuffles; the first num_base become the base and the last
/// 1000 the queries. Every row is an independent draw from the stand-in's
/// mixture, so a query is never a base point.
struct Data {
  Dataset base;
  Dataset queries;
};

Data MakeData(const char* stand_in, uint32_t num_base, uint64_t seed) {
  constexpr uint32_t kQueries = 1000;
  const double per_scale = stand_in == std::string("Msong") ? 6000.0 : 10000.0;
  const weavess::Workload all =
      weavess::MakeStandIn(stand_in, (num_base + kQueries) / per_scale);
  std::vector<uint32_t> order(all.base.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  weavess::Rng rng(seed);
  rng.Shuffle(order);
  Data data{Dataset::Zeros(num_base, all.base.dim()),
            Dataset::Zeros(kQueries, all.base.dim())};
  for (uint32_t i = 0; i < num_base + kQueries; ++i) {
    float* row = i < num_base ? data.base.MutableRow(i)
                              : data.queries.MutableRow(i - num_base);
    std::memcpy(row, all.base.Row(order[i]), sizeof(float) * all.base.dim());
  }
  return data;
}

/// Times the timed phase: either a fixed number of windows or until
/// `seconds` of wall time have passed (at least two windows).
class PhaseClock {
 public:
  explicit PhaseClock(const Args& args)
      : args_(args), start_ns_(NowNs()) {}
  bool Continue(uint32_t windows_done) const {
    if (args_.passes > 0) return windows_done < args_.passes;
    return windows_done < 2 ||
           (NowNs() - start_ns_) * 1e-9 < args_.seconds;
  }

 private:
  const Args& args_;
  int64_t start_ns_;
};

/// Latency and throughput of one client's query stream.
struct QueryTape {
  std::vector<double> latency_us;   // every timed query
  std::vector<double> window_qps;   // queries / client time per window
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  size_t window_begin = 0;          // first latency of the open window
  double recall_sum = 0.0;
  uint64_t recall_count = 0;
  uint64_t ndc = 0;
  uint64_t hops = 0;
  uint64_t quantized_evals = 0;
  uint64_t rescore_evals = 0;

  /// Closes a throughput window of `client_s` seconds: its QPS and its own
  /// latency percentiles (each window holds >= 1000 queries, so its p99
  /// has >= 10 samples beyond it).
  void CloseWindow(uint64_t queries, double client_s) {
    window_qps.push_back(static_cast<double>(queries) / client_s);
    std::vector<double> window(latency_us.begin() + window_begin,
                               latency_us.end());
    std::sort(window.begin(), window.end());
    window_p50_us.push_back(Percentile(window, 50));
    window_p99_us.push_back(Percentile(window, 99));
    window_begin = latency_us.size();
  }

  void AddStats(const QueryStats& stats) {
    ndc += stats.distance_evals;
    hops += stats.hops;
    quantized_evals += stats.quantized_evals;
    rescore_evals += stats.rescore_evals;
  }
};

/// qps, p50 and p99 are medians over the throughput windows, so one window
/// that another tenant's burst landed on does not move them.
void PutLatencyMetrics(const QueryTape& tape, Report* report) {
  report->end_to_end["qps"] = Median(tape.window_qps);
  report->end_to_end["query_p50_us"] = Median(tape.window_p50_us);
  report->end_to_end["query_p99_us"] = Median(tape.window_p99_us);
  std::printf("# queries timed: %zu in %zu windows of >= 1000\n",
              tape.latency_us.size(), tape.window_qps.size());
  std::vector<double> w = tape.window_qps;
  std::sort(w.begin(), w.end());
  std::printf("# window qps p10 %.0f p50 %.0f p90 %.0f max %.0f\n",
              Percentile(w, 10), Percentile(w, 50), Percentile(w, 90),
              w.back());
}

/// Per-query search counts over the scored queries of `tape`.
void PutQueryCounts(const QueryTape& tape, Report* report) {
  const auto n = static_cast<double>(std::max<uint64_t>(1, tape.recall_count));
  report->layer["search.ndc"] = tape.ndc / n;
  report->layer["search.hops"] = tape.hops / n;
  report->layer["quant.quantized_evals"] = tape.quantized_evals / n;
  report->layer["quant.rescore_evals"] = tape.rescore_evals / n;
}

/// Tracing overhead: traced vs untraced median latency of the top layer,
/// both measured in the traced run.
void PutTraceOverhead(const std::vector<double>& traced_us,
                      const std::vector<double>& untraced_us,
                      Report* report) {
  const double traced = Median(traced_us);
  const double untraced = Median(untraced_us);
  report->layer["trace.overhead_pct"] =
      untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0;
  std::printf("# tracing overhead: top-layer p50 %.3f us traced vs %.3f us "
              "untraced\n",
              traced, untraced);
}

/// Mean Recall@10 of the timed stream, gated by the workload's floor.
void CheckRecall(const QueryTape& tape, double floor, Report* report) {
  const double recall =
      tape.recall_count == 0 ? 0.0 : tape.recall_sum / tape.recall_count;
  report->end_to_end["recall_at_10"] = recall;
  std::printf("# recall@10 %.4f over %llu scored queries (floor %.2f)\n",
              recall, static_cast<unsigned long long>(tape.recall_count),
              floor);
  report->Expect(recall >= floor, "recall@10 " + std::to_string(recall) +
                                      " below floor " + std::to_string(floor));
}

/// Kernel cost per call at the workload's dimension, over 256 cache-resident
/// rows, one span per batch of calls.
void MeasureKernels(const Dataset& base, SpanLog& log, Report* report) {
  const uint32_t rows = std::min(256u, base.size());
  const uint32_t dim = base.dim();
  const Dataset sample = Slice(base, 0, rows);
  const weavess::QuantizedDataset codes =
      weavess::SQ8Codec::Train(sample).Encode(sample);
  constexpr uint32_t kBatch = 20000;
  constexpr uint32_t kBatches = 51;
  float float_sink = 0.0f;
  uint64_t int_sink = 0;
  for (uint32_t b = 0; b < kBatches; ++b) {
    {
      ScopedSpan span(log, "core.l2", b);
      for (uint32_t i = 0; i < kBatch; ++i) {
        const uint32_t a = i % rows;
        const uint32_t c = (i * 7 + b + 1) % rows;
        float_sink += weavess::L2Sqr(sample.Row(a), sample.Row(c), dim);
      }
    }
    {
      ScopedSpan span(log, "core.sq8", b);
      for (uint32_t i = 0; i < kBatch; ++i) {
        const uint32_t a = i % rows;
        const uint32_t c = (i * 7 + b + 1) % rows;
        int_sink += weavess::L2SqrSQ8(codes.Code(a), codes.Code(c), dim);
      }
    }
  }
  report->layer["core.l2_ns"] = log.MedianSeconds("core.l2") * 1e9 / kBatch;
  report->layer["core.sq8_ns"] =
      log.MedianSeconds("core.sq8") * 1e9 / kBatch;
  Consume(std::bit_cast<uint32_t>(float_sink) ^ int_sink);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// ---------------------------------------------------------------------------
// Serve workloads. One query stream of 1000 queries is cycled in full passes;
// each pass is one throughput window. Results of a pass are checked and
// scored after the pass, outside its timing.

struct ServeSetup {
  std::vector<double> setup_s;     // one per rep: build + save + open
  uint64_t build_evals = 0;
  uint64_t index_bytes = 0;
  uint64_t code_bytes = 0;
  uint64_t file_bytes = 0;
};

/// The workload's top-layer serving function plus, for the traced run, the
/// lower layers it stacks on (index, engine, serving, [replica]).
struct Layer {
  const char* span;
  std::function<bool(const float*, std::vector<uint32_t>*, QueryStats*)> fn;
};

/// One full pass of the query stream through `layer`, whose function returns
/// whether the program reported success and fills ids/stats. Returns client
/// seconds.
double RunPass(const Dataset& queries, const Layer& layer, SpanLog& log,
               std::vector<std::vector<uint32_t>>* ids,
               std::vector<QueryStats>* stats, std::vector<char>* ok,
               std::vector<double>* latency_us) {
  double client_s = 0.0;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    const int64_t start = NowNs();
    {
      ScopedSpan span(log, layer.span, q);
      (*ok)[q] = layer.fn(queries.Row(q), &(*ids)[q], &(*stats)[q]) ? 1 : 0;
    }
    const double seconds = (NowNs() - start) * 1e-9;
    client_s += seconds;
    if (latency_us != nullptr) latency_us->push_back(seconds * 1e6);
  }
  return client_s;
}

/// Checks and scores one pass; adds its queries to `attempted`.
void ScorePass(const Dataset& base, const Dataset& queries,
               const weavess::GroundTruth& truth,
               const std::vector<std::vector<uint32_t>>& ids,
               const std::vector<QueryStats>& stats,
               const std::vector<char>& ok, QueryTape* tape, Report* report) {
  std::string why;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ++report->attempted;
    if (!ok[q]) {
      report->Fail("query " + std::to_string(q) + " returned an error");
      continue;
    }
    auto row_of = [&base](uint32_t id) -> const float* {
      return id < base.size() ? base.Row(id) : nullptr;
    };
    if (!CheckResultList(ids[q], queries.Row(q), base.dim(), kK, row_of,
                         &why)) {
      report->Fail("query " + std::to_string(q) + ": " + why);
      continue;
    }
    tape->recall_sum += weavess::Recall(ids[q], truth[q], kK);
    ++tape->recall_count;
    tape->AddStats(stats[q]);
  }
}

void RunServePhase(const Args& args, const Dataset& base,
                   const Dataset& queries, const weavess::GroundTruth& truth,
                   const std::vector<Layer>& layers, double recall_floor,
                   SpanLog& log, Report* report) {
  const uint32_t nq = queries.size();
  std::vector<std::vector<uint32_t>> ids(nq);
  std::vector<QueryStats> stats(nq);
  std::vector<char> ok(nq, 0);
  const Layer& top = layers.back();
  // Warm-up pass: caches fill, lazy scratch allocations happen.
  log.set_enabled(false);
  QueryTape discard;
  RunPass(queries, top, log, &ids, &stats, &ok, nullptr);
  ScorePass(base, queries, truth, ids, stats, ok, &discard, report);

  QueryTape tape;
  uint32_t windows = 0;
  if (!args.trace) {
    PhaseClock clock(args);
    while (clock.Continue(windows)) {
      const double client_s =
          RunPass(queries, top, log, &ids, &stats, &ok, &tape.latency_us);
      tape.CloseWindow(nq, client_s);
      ScorePass(base, queries, truth, ids, stats, ok, &tape, report);
      ++windows;
    }
    PutLatencyMetrics(tape, report);
  } else {
    // Each rep: every layer as its own full pass (order alternates between
    // reps, so no layer always pays the first touch of a query), then one
    // untraced pass of the top layer for the tracing-overhead comparison.
    // A fixed rep count, not --seconds: the layer medians are steady well
    // before it, and it bounds the span file (~100k spans).
    std::vector<double> untraced_us;
    std::vector<double> traced_top_us;
    const uint32_t reps = args.passes > 0 ? args.passes : kTracedReps;
    while (windows < reps) {
      for (size_t i = 0; i < layers.size(); ++i) {
        const Layer& layer =
            layers[windows % 2 == 0 ? i : layers.size() - 1 - i];
        log.set_enabled(true);
        std::vector<double>* sink =
            &layer == &top ? &traced_top_us : nullptr;
        RunPass(queries, layer, log, &ids, &stats, &ok, sink);
        log.set_enabled(false);
        ScorePass(base, queries, truth, ids, stats, ok,
                  &layer == &layers.front() ? &tape : &discard, report);
      }
      RunPass(queries, top, log, &ids, &stats, &ok, &untraced_us);
      ScorePass(base, queries, truth, ids, stats, ok, &discard, report);
      ++windows;
    }
    report->layer["search.index_us"] =
        log.MedianSeconds(layers.front().span) * 1e6;
    PutQueryCounts(tape, report);
    // The overhead each layer adds over the one below it.
    const char* overhead_names[] = {"search.engine_us", "search.serving_us",
                                    "search.replica_us"};
    for (size_t i = 1; i < layers.size(); ++i) {
      report->layer[overhead_names[i - 1]] =
          (log.MedianSeconds(layers[i].span) -
           log.MedianSeconds(layers[i - 1].span)) *
          1e6;
    }
    PutTraceOverhead(traced_top_us, untraced_us, report);
  }
  log.set_enabled(args.trace);
  CheckRecall(tape, recall_floor, report);
}

/// Fills the setup-side metrics shared by the serve workloads.
void PutSetupMetrics(const ServeSetup& setup, SpanLog& log, Report* report) {
  report->end_to_end["setup_s"] = Median(setup.setup_s);
  report->layer["index_bytes"] = static_cast<double>(setup.index_bytes);
  report->layer["algorithms.build_s"] = log.MedianSeconds("algorithms.build");
  report->layer["algorithms.build_evals"] =
      static_cast<double>(setup.build_evals);
  report->layer["core.save_s"] = log.MedianSeconds("core.save");
  report->layer["search.open_s"] = log.MedianSeconds("search.open");
  report->layer["core.file_bytes"] = static_cast<double>(setup.file_bytes);
  report->layer["quant.code_bytes"] = static_cast<double>(setup.code_bytes);
  std::printf("# setup: %u reps, median %.4f s (", kSetupReps,
              Median(setup.setup_s));
  for (double s : setup.setup_s) std::printf(" %.4f", s);
  std::printf(" )\n");
}

/// Records one setup rep's build count; every rep must build the same graph.
void CheckBuildEvals(uint32_t rep, uint64_t evals, ServeSetup* setup,
                     Report* report) {
  if (rep == 0) setup->build_evals = evals;
  report->Expect(evals == setup->build_evals,
                 "build distance evals differ between setup reps");
}

/// NN-Descent on the workload's base, called directly at 1 and 2 threads
/// with the KNNG parameters NSG builds with. Both runs must agree exactly.
void MeasureNnDescent(const Dataset& base, SpanLog& log, Report* report) {
  const weavess::AlgorithmOptions defaults;
  weavess::NnDescentParams params;
  params.k = defaults.knng_degree;
  params.iterations = defaults.nn_descent_iters;
  std::vector<uint64_t> evals;
  for (uint32_t threads : {1u, 2u}) {
    params.num_threads = threads;
    weavess::DistanceCounter counter;
    weavess::NnDescent descent(base, params, &counter);
    {
      ScopedSpan span(log, threads == 1 ? "graph.nn_descent.t1"
                                        : "graph.nn_descent.t2");
      descent.InitRandom();
      descent.Run();
    }
    evals.push_back(counter.count);
  }
  report->Expect(evals[0] == evals[1],
                 "NN-Descent distance evals differ at 1 and 2 threads");
  const double t1 = log.MedianSeconds("graph.nn_descent.t1");
  const double t2 = log.MedianSeconds("graph.nn_descent.t2");
  report->layer["graph.nn_descent_s"] = t2;
  report->layer["graph.nn_descent_speedup"] = t2 > 0.0 ? t1 / t2 : 0.0;
}

/// The two layers below a serving engine: AnnIndex::SearchWith on `index`
/// and SearchEngine::SearchOne. The arguments must outlive the layers.
std::vector<Layer> IndexAndEngineLayers(const weavess::AnnIndex& index,
                                        weavess::SearchScratch& scratch,
                                        const weavess::SearchEngine& engine,
                                        const SearchParams& params) {
  return {
      {"search.index",
       [&index, &scratch, params](const float* q, std::vector<uint32_t>* ids,
                                  QueryStats* stats) {
         *ids = index.SearchWith(scratch, q, params, stats);
         return true;
       }},
      {"search.engine",
       [&engine, params](const float* q, std::vector<uint32_t>* ids,
                         QueryStats* stats) {
         *ids = engine.SearchOne(q, params, stats);
         return true;
       }}};
}

/// ServingEngine::Serve as a layer; `server` must outlive it.
Layer ServingLayer(weavess::ServingEngine& server, const SearchParams& params) {
  return {"search.serving",
          [&server, params](const float* q, std::vector<uint32_t>* ids,
                            QueryStats* stats) {
            weavess::RequestOptions request;
            request.params = params;
            weavess::ServeOutcome out = server.Serve(q, request);
            *ids = std::move(out.ids);
            *stats = out.stats;
            return out.status.ok();
          }};
}

SearchParams ServeParams(uint32_t pool_size) {
  SearchParams params;
  params.k = kK;
  params.pool_size = pool_size;
  return params;
}

void RunServeNsg(const Args& args, SpanLog& log, Report* report) {
  const Data data = MakeData("SIFT1M", 10000, args.seed);
  PrintQueryDigest(data.queries);
  const Dataset& base = data.base;
  const weavess::GroundTruth truth =
      weavess::ComputeGroundTruth(base, data.queries, kK, 2);
  const SearchParams params = ServeParams(20);
  const std::string replica_files[2] = {"replica0.wvs", "replica1.wvs"};
  const std::string manifest = args.work_dir + "/nsg.replicas";
  weavess::ServingConfig serving;
  serving.num_threads = 1;
  weavess::ReplicaSetConfig replica_config;
  replica_config.num_threads = 1;
  replica_config.dim = base.dim();

  ServeSetup setup;
  std::unique_ptr<weavess::ReplicaSet> set;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    set.reset();
    ScopedSpan rep_span(log, "setup", rep);
    weavess::AlgorithmOptions options;
    options.build_threads = args.build_threads;
    std::unique_ptr<weavess::AnnIndex> index =
        weavess::CreateAlgorithm("NSG", options);
    const int64_t start = NowNs();
    {
      ScopedSpan span(log, "algorithms.build", rep);
      index->Build(base);
    }
    {
      ScopedSpan span(log, "core.save", rep);
      weavess::ReplicaManifest replicas;
      for (const std::string& file : replica_files) {
        const std::string path = args.work_dir + "/" + file;
        report->ExpectOk(weavess::SaveGraph(index->graph(), path, "NSG"),
                         "SaveGraph");
        weavess::StatusOr<uint32_t> crc = weavess::FileCrc32c(path);
        report->ExpectOk(crc.status(), "FileCrc32c");
        replicas.replicas.push_back(
            {file, weavess::ReplicaManifest::Kind::kGraph,
             crc.ok() ? *crc : 0});
      }
      report->ExpectOk(weavess::SaveReplicaManifest(replicas, manifest),
                       "SaveReplicaManifest");
    }
    {
      ScopedSpan span(log, "search.open", rep);
      auto opened = weavess::ReplicaSet::FromReplicaManifest(
          manifest, base, replica_config, serving);
      report->ExpectOk(opened.status(), "FromReplicaManifest");
      if (opened.ok()) {
        for (const Status& s : opened->replica_status) {
          report->ExpectOk(s, "replica open");
        }
        set = std::move(opened->set);
      }
    }
    setup.setup_s.push_back((NowNs() - start) * 1e-9);
    CheckBuildEvals(rep, index->build_stats().distance_evals, &setup, report);
    setup.index_bytes = index->IndexMemoryBytes();
  }
  if (set == nullptr) return;
  setup.file_bytes = FileBytes(manifest);
  for (const std::string& file : replica_files) {
    setup.file_bytes += FileBytes(args.work_dir + "/" + file);
  }
  PutSetupMetrics(setup, log, report);
  PrintWorkingSet(base, 0, setup.index_bytes);

  auto replica_layer = [&](const float* q, std::vector<uint32_t>* ids,
                           QueryStats* stats) {
    weavess::RequestOptions request;
    request.params = params;
    weavess::RoutedOutcome routed = set->Serve(q, request);
    *ids = std::move(routed.outcome.ids);
    *stats = routed.outcome.stats;
    return routed.outcome.status.ok();
  };
  if (!args.trace) {
    RunServePhase(args, base, data.queries, truth,
                  {{"search.replica", replica_layer}}, kRecallFloorNsg, log,
                  report);
    return;
  }
  // The traced run rebuilds the layers below the replica set over the same
  // saved graph, so each can be timed as its own pass.
  weavess::StatusOr<weavess::Graph> graph =
      weavess::LoadGraph(args.work_dir + "/" + replica_files[0]);
  report->ExpectOk(graph.status(), "LoadGraph");
  if (!graph.ok()) return;
  const weavess::LoadedGraphIndex index(*std::move(graph), base, "NSG");
  weavess::SearchScratch scratch(index.graph().size());
  const weavess::SearchEngine engine(index, 1);
  weavess::ServingEngine server(index, serving);
  std::vector<Layer> layers = IndexAndEngineLayers(index, scratch, engine,
                                                   params);
  layers.push_back(ServingLayer(server, params));
  layers.push_back({"search.replica", replica_layer});
  RunServePhase(args, base, data.queries, truth, layers, kRecallFloorNsg, log,
                report);
  MeasureNnDescent(base, log, report);
}

void RunServeSq8(const Args& args, SpanLog& log, Report* report) {
  const Data data = MakeData("Msong", 12000, args.seed);
  PrintQueryDigest(data.queries);
  const Dataset& base = data.base;
  const weavess::GroundTruth truth =
      weavess::ComputeGroundTruth(base, data.queries, kK, 2);
  const SearchParams params = ServeParams(40);
  const std::string graph_path = args.work_dir + "/sq8.wvs";
  const std::string codes_path = args.work_dir + "/sq8.codes";
  weavess::ServingConfig serving;
  serving.num_threads = 1;

  ServeSetup setup;
  std::unique_ptr<weavess::ServingEngine> server;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    ScopedSpan rep_span(log, "setup", rep);
    weavess::AlgorithmOptions options;
    options.build_threads = args.build_threads;
    std::unique_ptr<weavess::AnnIndex> index =
        weavess::CreateAlgorithm("SQ8:HNSW", options);
    const auto* quantized =
        dynamic_cast<const weavess::QuantizedIndex*>(index.get());
    if (quantized == nullptr) {
      report->Fail("SQ8:HNSW is not a QuantizedIndex");
      return;
    }
    const int64_t start = NowNs();
    {
      ScopedSpan span(log, "algorithms.build", rep);
      index->Build(base);
    }
    {
      ScopedSpan span(log, "core.save", rep);
      report->ExpectOk(
          weavess::SaveGraph(index->graph(), graph_path, "SQ8:HNSW"),
          "SaveGraph");
      report->ExpectOk(weavess::SaveQuantized(quantized->codes(), codes_path),
                       "SaveQuantized");
    }
    {
      ScopedSpan span(log, "search.open", rep);
      weavess::ServingEngine::Opened opened =
          weavess::ServingEngine::FromSavedGraphWithCodes(
              graph_path, codes_path, base, serving);
      report->ExpectOk(opened.load_status, "FromSavedGraphWithCodes");
      report->Expect(!opened.engine->fallback_mode(),
                     "FromSavedGraphWithCodes fell back to brute force");
      server = std::move(opened.engine);
    }
    setup.setup_s.push_back((NowNs() - start) * 1e-9);
    CheckBuildEvals(rep, index->build_stats().distance_evals, &setup, report);
    setup.index_bytes = index->IndexMemoryBytes();
    setup.code_bytes = quantized->CodeMemoryBytes();
  }
  setup.file_bytes = FileBytes(graph_path) + FileBytes(codes_path);
  PutSetupMetrics(setup, log, report);
  PrintWorkingSet(base, setup.code_bytes, setup.index_bytes);

  const Layer serving_layer = ServingLayer(*server, params);
  if (!args.trace) {
    RunServePhase(args, base, data.queries, truth, {serving_layer},
                  kRecallFloorSq8, log, report);
    return;
  }
  weavess::StatusOr<weavess::Graph> graph = weavess::LoadGraph(graph_path);
  weavess::StatusOr<weavess::QuantizedDataset> codes =
      weavess::LoadQuantized(codes_path);
  report->ExpectOk(graph.status(), "LoadGraph");
  report->ExpectOk(codes.status(), "LoadQuantized");
  if (!graph.ok() || !codes.ok()) return;
  const weavess::QuantizedIndex index(*std::move(graph), *std::move(codes),
                                      base, "SQ8:HNSW");
  weavess::SearchScratch scratch(index.graph().size());
  const weavess::SearchEngine engine(index, 1);
  std::vector<Layer> layers = IndexAndEngineLayers(index, scratch, engine,
                                                   params);
  layers.push_back(serving_layer);
  RunServePhase(args, base, data.queries, truth, layers, kRecallFloorSq8, log,
                report);
}

// ---------------------------------------------------------------------------
// Churn. The base's first 90% is preloaded and committed; the other 10% is
// withheld for churn inserts. One write is followed by kQueriesPerWrite
// queries; writes Add a withheld row until kLiveChurn churn rows are live,
// then alternate Add and Remove-the-oldest-churn-row. Commit runs every
// kCommitEvery writes and CompactShard on a rotating shard once per window
// of kWindowWrites writes, so maintenance lands at the same points in every
// run. Queries are scored against the exact top-10 of the live set: the
// preload's precomputed top-10 merged with the live churn rows.

constexpr uint32_t kChurnBase = 10000;
constexpr uint32_t kShards = 4;
constexpr uint32_t kLiveChurn = 64;
constexpr uint32_t kQueriesPerWrite = 4;
constexpr uint32_t kCommitEvery = 32;
constexpr uint32_t kWindowWrites = 256;
constexpr uint32_t kChurnPool = 20;

struct ChurnState {
  std::vector<const float*> row_of_id;  // global id -> row, null when dead
  std::deque<uint32_t> live_churn;      // churn ids, oldest first
  uint64_t adds = 0;
  uint64_t writes = 0;
  uint64_t compactions = 0;
  uint64_t next_query = 0;
};

void RunChurn(const Args& args, SpanLog& log, Report* report) {
  const Data data = MakeData("SIFT1M", kChurnBase, args.seed);
  PrintQueryDigest(data.queries);
  const Dataset& base = data.base;
  const Dataset& queries = data.queries;
  const uint32_t preload = kChurnBase / 10 * 9;
  const Dataset preload_rows = Slice(base, 0, preload);
  const weavess::GroundTruth preload_truth =
      weavess::ComputeGroundTruth(preload_rows, queries, kK, 2);
  const SearchParams params = ServeParams(kChurnPool);
  const std::string dir = args.work_dir + "/churn";
  weavess::MutableIndexOptions options;
  options.dim = base.dim();
  options.num_shards = kShards;

  std::vector<double> setup_s;
  std::unique_ptr<weavess::MutableShardedIndex> index;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    ScopedSpan rep_span(log, "setup", rep);
    const int64_t start = NowNs();
    {
      ScopedSpan span(log, "shard.open", rep);
      auto opened = weavess::MutableShardedIndex::Open(dir, options);
      report->ExpectOk(opened.status(), "MutableShardedIndex::Open");
      if (!opened.ok()) return;
      index = *std::move(opened);
    }
    {
      ScopedSpan span(log, "shard.preload", rep);
      bool ids_ok = true;
      for (uint32_t row = 0; row < preload; ++row) {
        weavess::StatusOr<uint32_t> id = index->Add(base.Row(row));
        ids_ok = ids_ok && id.ok() && *id == row;
      }
      report->Expect(ids_ok, "preload Add failed or returned unexpected ids");
    }
    {
      ScopedSpan span(log, "shard.commit", rep);
      report->ExpectOk(index->Commit(), "preload Commit");
    }
    setup_s.push_back((NowNs() - start) * 1e-9);
  }
  report->end_to_end["setup_s"] = Median(setup_s);
  std::printf("# setup: %u reps, median %.4f s (", kSetupReps,
              Median(setup_s));
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" )\n");
  PrintWorkingSet(base, 0, 0);

  weavess::ServingConfig serving_config;
  serving_config.num_threads = 1;
  auto server =
      std::make_unique<weavess::ServingEngine>(*index, serving_config);

  ChurnState state;
  state.row_of_id.resize(preload);
  for (uint32_t id = 0; id < preload; ++id) state.row_of_id[id] = base.Row(id);

  // The exact top-10 of the live set for query q.
  auto live_truth = [&](uint32_t q) {
    std::vector<std::pair<float, uint32_t>> best;
    for (uint32_t id : preload_truth[q]) {
      best.emplace_back(weavess::L2Sqr(queries.Row(q), base.Row(id),
                                       base.dim()),
                        id);
    }
    for (uint32_t id : state.live_churn) {
      best.emplace_back(
          weavess::L2Sqr(queries.Row(q), state.row_of_id[id], base.dim()), id);
    }
    std::sort(best.begin(), best.end());
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < kK && i < best.size(); ++i) {
      ids.push_back(best[i].second);
    }
    return ids;
  };
  auto row_of = [&state](uint32_t id) -> const float* {
    return id < state.row_of_id.size() ? state.row_of_id[id] : nullptr;
  };

  QueryTape tape;
  std::vector<double> write_us;
  std::vector<double> query_traced_us;
  std::vector<double> query_untraced_us;
  std::string why;

  // One query through either the serving engine or the index directly.
  auto query = [&](bool direct, bool timed) {
    const uint32_t q = static_cast<uint32_t>(state.next_query++ %
                                             queries.size());
    std::vector<uint32_t> ids;
    QueryStats stats;
    bool ok = true;
    const int64_t start = NowNs();
    if (direct) {
      ScopedSpan span(log, "shard.search", q);
      ids = index->Search(queries.Row(q), params, &stats);
    } else {
      ScopedSpan span(log, "search.serving", q);
      weavess::RequestOptions request;
      request.params = params;
      weavess::ServeOutcome out = server->Serve(queries.Row(q), request);
      ok = out.status.ok();
      ids = std::move(out.ids);
      stats = out.stats;
    }
    const double us = (NowNs() - start) * 1e-3;
    ++report->attempted;
    if (!ok) {
      report->Fail("churn query returned an error");
      return us;
    }
    if (!CheckResultList(ids, queries.Row(q), base.dim(), kK, row_of, &why)) {
      report->Fail("churn query " + std::to_string(q) + ": " + why);
      return us;
    }
    if (timed) {
      if (!direct) {
        tape.latency_us.push_back(us);
        (log.enabled() ? query_traced_us : query_untraced_us).push_back(us);
      }
      tape.recall_sum += weavess::Recall(ids, live_truth(q), kK);
      ++tape.recall_count;
      tape.AddStats(stats);
    }
    return us;
  };

  // One write: Add a withheld row or Remove the oldest churn row.
  auto write = [&](bool direct) {
    const bool add = state.live_churn.size() < kLiveChurn ||
                     state.writes % 2 == 0;
    ++state.writes;
    ++report->attempted;
    const int64_t start = NowNs();
    if (add) {
      const float* row =
          base.Row(preload + static_cast<uint32_t>(
                                 state.adds++ % (kChurnBase - preload)));
      uint32_t id = 0;
      bool ok = false;
      if (direct) {
        ScopedSpan span(log, "shard.add", state.adds);
        weavess::StatusOr<uint32_t> added = index->Add(row);
        ok = added.ok();
        if (ok) id = *added;
      } else {
        ScopedSpan span(log, "search.mutation", state.adds);
        weavess::MutationRequest request;
        request.op = weavess::MutationOp::kAdd;
        request.vector = row;
        weavess::MutationOutcome out = server->ServeMutation(request);
        ok = out.status.ok();
        id = out.id;
      }
      const double us = (NowNs() - start) * 1e-3;
      if (!ok || id != state.row_of_id.size()) {
        report->Fail("churn Add failed or returned an unexpected id");
        return us;
      }
      state.row_of_id.push_back(row);
      state.live_churn.push_back(id);
      return us;
    }
    const uint32_t id = state.live_churn.front();
    bool ok = false;
    if (direct) {
      ScopedSpan span(log, "shard.remove", id);
      ok = index->Remove(id).ok();
    } else {
      ScopedSpan span(log, "search.mutation", id);
      weavess::MutationRequest request;
      request.op = weavess::MutationOp::kRemove;
      request.id = id;
      ok = server->ServeMutation(request).status.ok();
    }
    const double us = (NowNs() - start) * 1e-3;
    if (!ok) {
      report->Fail("churn Remove of id " + std::to_string(id) + " failed");
      return us;
    }
    state.live_churn.pop_front();
    state.row_of_id[id] = nullptr;
    return us;
  };

  // Commit and compaction at fixed write counts; returns client seconds.
  auto maintain = [&]() {
    double seconds = 0.0;
    if (state.writes % kCommitEvery == 0) {
      const int64_t start = NowNs();
      {
        ScopedSpan span(log, "shard.commit", state.writes);
        report->ExpectOk(index->Commit(), "Commit");
      }
      seconds += (NowNs() - start) * 1e-9;
    }
    if (state.writes % kWindowWrites == 0) {
      const uint32_t shard =
          static_cast<uint32_t>(state.compactions++ % kShards);
      const int64_t start = NowNs();
      {
        ScopedSpan span(log, "shard.compact", shard);
        report->ExpectOk(index->CompactShard(shard), "CompactShard");
      }
      seconds += (NowNs() - start) * 1e-9;
    }
    return seconds;
  };

  // Warm-up: one pass of queries, no writes.
  log.set_enabled(false);
  for (uint32_t i = 0; i < queries.size(); ++i) query(false, false);

  const std::string wal = weavess::MutableShardedIndex::WalPath(dir);
  const uint64_t wal_before = FileBytes(wal);
  const uint64_t writes_before = state.writes;
  PhaseClock clock(args);
  uint32_t windows = 0;
  while (clock.Continue(windows)) {
    // Untraced runs serve every window. Traced runs rotate: serving traced,
    // serving untraced (the tracing-overhead baseline), direct index calls
    // traced (the layer below ServingEngine).
    const uint32_t mode = args.trace ? windows % 3 : 1;
    const bool direct = mode == 2;
    log.set_enabled(mode != 1);
    double client_s = 0.0;
    uint32_t window_queries = 0;
    for (uint32_t w = 0; w < kWindowWrites; ++w) {
      const double us = write(direct);
      if (!direct) write_us.push_back(us);
      client_s += us * 1e-6;
      client_s += maintain();
      for (uint32_t i = 0; i < kQueriesPerWrite; ++i) {
        client_s += query(direct, true) * 1e-6;
        ++window_queries;
      }
    }
    if (!direct) tape.CloseWindow(window_queries, client_s);
    ++windows;
  }
  log.set_enabled(args.trace);
  const uint64_t writes_timed = state.writes - writes_before;
  const double wal_per_write =
      writes_timed == 0
          ? 0.0
          : static_cast<double>(FileBytes(wal) - wal_before) / writes_timed;
  PutLatencyMetrics(tape, report);
  std::sort(write_us.begin(), write_us.end());
  report->layer["write_p50_us"] = Percentile(write_us, 50);
  report->layer["write_p99_us"] = Percentile(write_us, 99);
  std::printf("# writes timed: %zu\n", write_us.size());
  CheckRecall(tape, kRecallFloorChurn, report);

  // Close and reopen: the committed generation, the live size and the
  // results on a fixed probe set must all survive.
  report->ExpectOk(index->Commit(), "final Commit");
  const uint64_t generation = index->generation();
  const uint32_t live = index->live_size();
  report->Expect(live == preload + state.live_churn.size(),
                 "live_size does not match the benchmark's live set");
  std::vector<std::vector<uint32_t>> probe;
  for (uint32_t q = 0; q < 32; ++q) {
    probe.push_back(index->Search(queries.Row(q), params));
  }
  server.reset();
  index.reset();
  {
    ScopedSpan span(log, "shard.recover");
    auto reopened = weavess::MutableShardedIndex::Open(dir, options);
    report->ExpectOk(reopened.status(), "reopen");
    if (reopened.ok()) index = *std::move(reopened);
  }
  if (index != nullptr) {
    report->Expect(index->generation() == generation,
                   "reopen recovered a different generation");
    report->Expect(index->live_size() == live,
                   "reopen recovered a different live_size");
    for (uint32_t q = 0; q < 32; ++q) {
      report->Expect(index->Search(queries.Row(q), params) == probe[q],
                     "reopen changed the results of probe query " +
                         std::to_string(q));
    }
  }
  uint64_t dir_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) dir_bytes += entry.file_size();
  }

  report->layer["shard.add_us"] = log.MedianSeconds("shard.add") * 1e6;
  report->layer["shard.remove_us"] = log.MedianSeconds("shard.remove") * 1e6;
  report->layer["shard.commit_us"] = log.MedianSeconds("shard.commit") * 1e6;
  std::vector<double> direct_writes = log.Durations("shard.add");
  for (double s : log.Durations("shard.remove")) direct_writes.push_back(s);
  report->layer["search.mutation_us"] =
      (log.MedianSeconds("search.mutation") - Median(direct_writes)) * 1e6;
  report->layer["shard.compact_ms"] = log.MedianSeconds("shard.compact") * 1e3;
  report->layer["shard.wal_bytes_per_write"] = wal_per_write;
  report->layer["shard.search_us"] = log.MedianSeconds("shard.search") * 1e6;
  report->layer["shard.recover_s"] = log.MedianSeconds("shard.recover");
  report->layer["core.file_bytes"] = static_cast<double>(dir_bytes);
  report->layer["search.index_us"] = report->layer["shard.search_us"];
  report->layer["search.serving_us"] = (log.MedianSeconds("search.serving") -
                                        log.MedianSeconds("shard.search")) *
                                       1e6;
  PutQueryCounts(tape, report);
  if (args.trace) PutTraceOverhead(query_traced_us, query_untraced_us, report);
}

// ---------------------------------------------------------------------------
// Output.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"qps", "1/s"},          {"query_p50_us", "us"}, {"query_p99_us", "us"},
    {"recall_at_10", "fraction"}, {"setup_s", "s"},
};

// Every per-layer metric is emitted for every workload; a layer that is not
// on a workload's path reports 0 (README.md, "Per-layer ledger").
constexpr MetricSpec kPerLayer[] = {
    {"core.l2_ns", "ns"},
    {"core.sq8_ns", "ns"},
    {"algorithms.build_s", "s"},
    {"algorithms.build_evals", "count"},
    {"graph.nn_descent_s", "s"},
    {"graph.nn_descent_speedup", "x"},
    {"core.save_s", "s"},
    {"search.open_s", "s"},
    {"core.file_bytes", "bytes"},
    {"search.index_us", "us"},
    {"search.ndc", "count"},
    {"search.hops", "count"},
    {"search.engine_us", "us"},
    {"search.serving_us", "us"},
    {"search.replica_us", "us"},
    {"quant.quantized_evals", "count"},
    {"quant.rescore_evals", "count"},
    {"quant.code_bytes", "bytes"},
    {"shard.add_us", "us"},
    {"shard.remove_us", "us"},
    {"shard.commit_us", "us"},
    {"search.mutation_us", "us"},
    {"shard.compact_ms", "ms"},
    {"shard.wal_bytes_per_write", "bytes"},
    {"shard.search_us", "us"},
    {"shard.recover_s", "s"},
    {"index_bytes", "bytes"},
    {"write_p50_us", "us"},
    {"write_p99_us", "us"},
    {"error_rate", "fraction"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"host.effective_parallelism_before", "x"},
    {"host.effective_parallelism_after", "x"},
    {"host.spin_ms_before", "ms"},
    {"host.spin_ms_after", "ms"},
    {"host.kernel_level", "level"},
    {"host.flagged", "count"},
};

/// The JSON metrics object: every metric of `specs`, 0 when not measured.
template <size_t N>
std::string MetricsJson(const MetricSpec (&specs)[N],
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[160];
  for (size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name,
                  std::isfinite(value) ? value : 0.0, specs[i].unit);
    out += buf;
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--passes") {
      args->passes = static_cast<uint32_t>(std::strtoul(value, &end, 10));
    } else if (flag == "--build-threads") {
      args->build_threads =
          static_cast<uint32_t>(std::strtoul(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->out_dir.empty() && args->seconds > 0.0 &&
         args->build_threads >= 1 && args->build_threads <= kBuildThreads;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--passes P] "
                 "[--build-threads 1|2]\n");
    return 2;
  }
  using RunFn = void (*)(const Args&, SpanLog&, Report*);
  const std::map<std::string, RunFn> workloads = {
      {"serve-nsg-sift", RunServeNsg},
      {"serve-sq8-msong", RunServeSq8},
      {"churn-hnsw-sift", RunChurn},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  args.work_dir = args.out_dir + "/work-" + args.workload;
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  SpanLog log;
  Report report;
  const HostProbe before = CalibrateHost();
  std::printf(
      "# workload %s seed %llu seconds %.1f trace %d build_threads %u\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.build_threads);
  std::printf("# host: nproc %u, effective parallelism %.2f (1-thread spin "
              "%.1f ms), kernel %s\n",
              before.threads, before.effective_parallelism,
              before.single_s * 1e3,
              weavess::KernelLevelName(weavess::ActiveKernelLevel()));
  log.set_enabled(args.trace);
  workload->second(args, log, &report);
  log.set_enabled(false);
  {
    // Kernels last, at the workload's dimension; cheap enough for every run.
    const Data sample = MakeData(
        args.workload == "serve-sq8-msong" ? "Msong" : "SIFT1M", 256,
        args.seed);
    log.set_enabled(true);
    MeasureKernels(sample.base, log, &report);
    log.set_enabled(false);
  }
  const HostProbe after = CalibrateHost();
  std::printf("# host after: effective parallelism %.2f (1-thread spin "
              "%.1f ms)\n",
              after.effective_parallelism, after.single_s * 1e3);
  const bool flagged = before.effective_parallelism < args.build_threads ||
                       after.effective_parallelism < args.build_threads;
  if (flagged) {
    std::printf("# host FLAGGED: effective parallelism below build_threads "
                "%u during this run\n",
                args.build_threads);
  }
  report.layer["host.effective_parallelism_before"] =
      before.effective_parallelism;
  report.layer["host.effective_parallelism_after"] =
      after.effective_parallelism;
  report.layer["host.spin_ms_before"] = before.single_s * 1e3;
  report.layer["host.spin_ms_after"] = after.single_s * 1e3;
  report.layer["host.kernel_level"] =
      static_cast<double>(weavess::ActiveKernelLevel());
  report.layer["host.flagged"] = flagged ? 1.0 : 0.0;
  report.layer["trace.spans"] = static_cast<double>(log.size());
  report.layer["error_rate"] =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) / report.attempted;

  if (args.trace) {
    std::printf("# span ledger (name: count, total s, self s)\n");
    for (const auto& [name, entry] : log.SelfTimes()) {
      std::printf("#   %-28s %9llu %10.4f %10.4f\n", name.c_str(),
                  static_cast<unsigned long long>(entry.count), entry.total_s,
                  entry.self_s);
    }
    const std::string path =
        args.out_dir + "/trace-" + args.workload + ".jsonl";
    if (!log.WriteJsonl(path)) report.Fail("could not write " + path);
    std::printf("# spans written to %s\n", path.c_str());
  }
  // Every metric this run measured, by name and unit.
  for (const MetricSpec& spec : kEndToEnd) {
    const auto it = report.end_to_end.find(spec.name);
    if (it == report.end_to_end.end()) continue;
    std::printf("# metric %s = %.10g %s\n", spec.name, it->second, spec.unit);
  }
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = report.layer.find(spec.name);
    if (it == report.layer.end()) continue;
    std::printf("# metric %s = %.10g %s\n", spec.name, it->second, spec.unit);
  }
  for (const std::string& error : report.errors) {
    std::printf("# FAILED: %s\n", error.c_str());
  }
  fs::remove_all(args.work_dir, ec);
  const bool correct = report.failed == 0 && report.attempted > 0;
  const std::string metrics = args.trace
                                  ? MetricsJson(kPerLayer, report.layer)
                                  : MetricsJson(kEndToEnd, report.end_to_end);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  1, report.attempted)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
