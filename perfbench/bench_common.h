// Shared pieces of the repo benchmark: run configuration, the result
// report (metrics, per-operation failure accounting, output checks), the
// in-memory span tracer, synthetic inputs, and the decomposed read path
// the traced runs use to split a chunk read into its layers.
//
// Everything here sits outside the library: layers are timed around
// calls into the public functions of src/, never from inside them.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/determinism_model.h"
#include "src/core/experiment.h"
#include "src/record/recorded_execution.h"
#include "src/trace/corpus.h"

namespace perfbench {

// ------------------------------------------------------------ run config

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

// Load threads / connections a workload may use (the box's nproc).
inline constexpr int kLoadThreads = 4;

// How many times each workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 9;

// ------------------------------------------------------------- timing

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The quantile of a run's samples the end-to-end metrics report: the
// fastest tenth of iteration times, or of per-second figures.
inline constexpr double kFastDecile = 0.1;

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// JSON array of the values (the per-iteration samples in detail lines).
std::string JsonArray(const std::vector<double>& values);

// Runs fn(i) for i in [0, tasks) on up to `threads` threads.
void ParallelFor(size_t tasks, int threads,
                 const std::function<void(size_t)>& fn);

// --------------------------------------------------------------- report

// Collects everything one run reports. Metrics keep insertion order;
// failure accounting is per operation type; any failed check makes the
// run incorrect (and the benchmark exit non-zero). Thread-safe.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // One attempted operation of type `op`; `ok` false counts it failed.
  void Op(const std::string& op, bool ok);
  // A correctness check; the first failures are kept for the log.
  void Check(bool ok, const std::string& what);
  // A free-form JSON value stored under `key` in the detail line.
  void Detail(const std::string& key, const std::string& json);

  uint64_t attempted() const;
  uint64_t failed() const;
  bool correct() const;
  // (completed / attempted) over every operation of the run.
  double ok_frac() const;

  // The detail line (stamp, per-op counts, details, every metric) and the
  // result line (correct / attempted / failed / metrics).
  std::string DetailLine(const std::string& stamp_json) const;
  std::string ResultLine() const;

 private:
  struct MetricValue {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct OpCount {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };

  // {name: {value, unit}, ...}; the caller holds mu_.
  std::string MetricsJson() const;

  mutable std::mutex mu_;
  std::vector<MetricValue> metrics_;
  std::map<std::string, OpCount> ops_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::string> check_failures_;
  uint64_t checks_failed_ = 0;
};

// ---------------------------------------------------------------- spans

// One finished span. `root` names the outermost span open on the thread
// when this one began (itself for a root); `op` is the per-RPC / per-cell
// identifier every span of one operation shares.
struct SpanRecord {
  const char* name = "";
  const char* root = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;
  uint32_t thread = 0;
  double start = 0.0;  // seconds on the steady clock
  double end = 0.0;
  double seconds() const { return end - start; }
};

// Process-wide switch plus the in-memory span buffer. Spans are recorded
// only while enabled; disabled, a Span costs one relaxed atomic load.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void Record(const SpanRecord& record);
  static std::vector<SpanRecord> Snapshot();

 private:
  static std::atomic<bool> enabled_;
};

// RAII span around one call into a layer. Parents are the enclosing spans
// on the same thread; `op` 0 inherits the parent's operation id.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  Span* parent_ = nullptr;
};

// Aggregates of one span name under one root: how often it ran, its
// inclusive time, and its self time (inclusive minus nested child spans).
struct LayerTime {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations;
};

struct SpanSummary {
  // (root, name) -> aggregate.
  std::map<std::pair<std::string, std::string>, LayerTime> layers;
  // root -> summed duration of its root spans.
  std::map<std::string, double> root_seconds;

  // Inclusive seconds of `name` under `root` ("" = under any root).
  double Total(const std::string& name, const std::string& root = "") const;
  // Every duration of `name` under any root.
  std::vector<double> Durations(const std::string& name) const;
  // JSON array of {root, layer, count, total_s, self_s, share}, where
  // share = self time / summed root time of that root.
  std::string BreakdownJson() const;
  // The same as an aligned text table, for the log.
  std::string BreakdownTable() const;
};

SpanSummary Summarize(const std::vector<SpanRecord>& spans);

// Writes every span as one JSON line; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::string& stamp_json);

// --------------------------------------------------------------- inputs

// Seeded synthetic recording with the event shape the corpus serving
// micro-benchmark uses (shared reads and RNG draws over 6 fibers, 3
// nodes, 12 objects, 4 regions).
ddr::RecordedExecution MakeSyntheticRecording(uint64_t num_events,
                                              uint64_t seed);

// Order-sensitive Event::SemanticHash fingerprint of an event sequence.
uint64_t FingerprintEvents(const std::vector<ddr::Event>& events);

// Mixes two values into a derived seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// ------------------------------------------------------ decomposed read

// A cold pass over the named entries of the bundle at `path` through the
// decomposed chunk read path: the same public steps
// TraceReader::ReadAllEvents takes on a cache miss, each under its own
// span — trace.section_read (framing + RandomAccessFile::Read, holding
// util.crc32 and trace.ddrz), trace.chunk_decode, record.log_assemble —
// with no chunk cache involved. Each entry runs under one `root` span and
// counts one `op`. Returns each entry's FingerprintEvents, in order, or
// nullopt for an entry that failed to read.
std::vector<std::optional<uint64_t>> DecomposedPass(
    const std::string& path, const std::vector<std::string>& names,
    const char* root, const char* op, Report& report);

// A cold read of the named entries of the bundle at `path`, done twice:
// through the library (a fresh CorpusReader; per entry a "cold_pass" root
// holding OpenTrace under trace.open and ReadAllEvents under
// trace.read_all) and through DecomposedPass (root "cold_decomposed").
// Checks that both yield the same events and emits trace.bytes_read and
// trace.chunks_decoded of the library pass.
void ColdReadPasses(const std::string& path,
                    const std::vector<std::string>& names, Report& report);

// trace.open_s, trace.read_all_s and the DecomposedPass layers of one
// ColdReadPasses.
void ColdReadLayerMetrics(Report& report, const SpanSummary& summary);

// Span name of ExperimentHarness::ReplayAndScore for `model`
// ("core.replay_and_score.<model>", static storage).
const char* ReplaySpanName(ddr::DeterminismModel model);

// core.replay_and_score_s.<model> for all six models: summed span time
// under `root` ("" = any root) spread over `iterations`.
void ReplayLayerMetrics(Report& report, const SpanSummary& summary,
                        uint64_t iterations, const std::string& root = "");

// Replay-layer counters summed over scored rows.
struct ReplayCounters {
  uint64_t attempts = 0;
  uint64_t attempt_units = 0;  // sum of max(1, attempts): one per replay
  uint64_t events_simulated = 0;
  uint64_t solver_nodes = 0;
  uint64_t divergences = 0;
  uint64_t reproduced = 0;

  void Add(const ddr::ExperimentRow& row);
  // The replay.* metrics, counts spread over `iterations`.
  void Emit(Report& report, uint64_t iterations) const;
};

// <layer>_s for the five layers of DecomposedPass under `root`.
void DecomposedLayerMetrics(Report& report, const SpanSummary& summary,
                            const std::string& root, uint64_t iterations);

// ------------------------------------------------------------ workloads

void RunGrid(const RunConfig& config, Report& report);
void RunServe(const RunConfig& config, Report& report);

// Repeats `setup` kSetupRepeats times (each result replaces the last),
// reports the median wall time as setup_s and returns the final state.
template <typename State>
State RepeatSetup(Report& report, const std::function<State()>& setup) {
  std::vector<double> seconds;
  State state{};
  for (int i = 0; i < kSetupRepeats; ++i) {
    state = State{};  // tear the previous set-up down before re-running it
    const double start = NowSeconds();
    state = setup();
    seconds.push_back(NowSeconds() - start);
  }
  report.Metric("setup_s", Median(seconds), "s");
  return state;
}

// hits / misses / evictions accumulated between two cache snapshots.
ddr::ChunkCacheStats CacheDelta(const ddr::ChunkCacheStats& after,
                                const ddr::ChunkCacheStats& before);

// Reports the workload's share of completed operations.
void ReportOkFrac(Report& report);

// Per-layer metric of a traced run: `total` spread over `iterations`.
void LayerMetric(Report& report, const std::string& name, double total,
                 uint64_t iterations, const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
