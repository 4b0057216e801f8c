#include "perfbench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "src/trace/block_compress.h"
#include "src/trace/chunk_codec.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace perfbench {

using ddr::Event;

// ---------------------------------------------------------------- timing

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += ddr::StrPrintf("%s%.6g", i == 0 ? "" : ",", values[i]);
  }
  return out + "]";
}

void ParallelFor(size_t tasks, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  const auto worker = [&]() {
    for (size_t i = next.fetch_add(1); i < tasks; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  const size_t count =
      std::min<size_t>(tasks, static_cast<size_t>(std::max(threads, 1)));
  std::vector<std::thread> pool;
  for (size_t t = 1; t < count; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : pool) {
    thread.join();
  }
}

// ---------------------------------------------------------------- report

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  return ddr::StrPrintf("%.17g", value);
}

std::string JsonString(const std::string& value) {
  return "\"" + ddr::JsonEscape(value) + "\"";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (MetricValue& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(MetricValue{name, value, unit});
}

void Report::Op(const std::string& op, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  OpCount& count = ops_[op];
  ++count.attempted;
  if (!ok) {
    ++count.failed;
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++checks_failed_;
  if (check_failures_.size() < 20) {
    check_failures_.push_back(what);
  }
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::Detail(const std::string& key, const std::string& json) {
  std::lock_guard<std::mutex> lock(mu_);
  details_.emplace_back(key, json);
}

uint64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [op, count] : ops_) {
    total += count.attempted;
  }
  return total;
}

uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [op, count] : ops_) {
    total += count.failed;
  }
  return total;
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_failed_ == 0;
}

double Report::ok_frac() const {
  const uint64_t total = attempted();
  return total == 0 ? 0.0
                    : static_cast<double>(total - failed()) /
                          static_cast<double>(total);
}

std::string Report::DetailLine(const std::string& stamp_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"perfbench\":" + stamp_json + ",\"ops\":{";
  bool first = true;
  for (const auto& [op, count] : ops_) {
    out += ddr::StrPrintf("%s%s:{\"attempted\":%llu,\"failed\":%llu}",
                          first ? "" : ",", JsonString(op).c_str(),
                          static_cast<unsigned long long>(count.attempted),
                          static_cast<unsigned long long>(count.failed));
    first = false;
  }
  out += "},\"check_failures\":[";
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(check_failures_[i]);
  }
  out += "]";
  for (const auto& [key, json] : details_) {
    out += "," + JsonString(key) + ":" + json;
  }
  return out + ",\"all_metrics\":" + MetricsJson() + "}";
}

std::string Report::ResultLine() const {
  const uint64_t total_attempted = attempted();
  const uint64_t total_failed = failed();
  const bool is_correct = correct();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = ddr::StrPrintf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":",
      is_correct ? "true" : "false",
      static_cast<unsigned long long>(total_attempted),
      static_cast<unsigned long long>(total_failed));
  return out + MetricsJson() + "}";
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += ddr::StrPrintf("%s%s:{\"value\":%s,\"unit\":%s}", i == 0 ? "" : ",",
                          JsonString(metrics_[i].name).c_str(),
                          JsonNumber(metrics_[i].value).c_str(),
                          JsonString(metrics_[i].unit).c_str());
  }
  return out + "}";
}

ddr::ChunkCacheStats CacheDelta(const ddr::ChunkCacheStats& after,
                                const ddr::ChunkCacheStats& before) {
  ddr::ChunkCacheStats delta;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.evictions = after.evictions - before.evictions;
  return delta;
}

void ReportOkFrac(Report& report) {
  report.Metric("ok_frac", report.ok_frac(), "frac");
}

void LayerMetric(Report& report, const std::string& name, double total,
                 uint64_t iterations, const std::string& unit) {
  report.Metric(name, iterations == 0 ? 0.0 : total / iterations, unit);
}

// ----------------------------------------------------------------- spans

std::atomic<bool> Tracer::enabled_{false};

namespace {

std::mutex g_spans_mu;
std::vector<SpanRecord> g_spans;
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_thread{0};

thread_local Span* t_open_span = nullptr;
thread_local uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

void Tracer::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Tracer::Record(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back(record);
}

std::vector<SpanRecord> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  return g_spans;
}

Span::Span(const char* name, uint64_t op) {
  if (!Tracer::enabled()) {
    return;
  }
  active_ = true;
  parent_ = t_open_span;
  record_.name = name;
  record_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.thread = t_thread;
  if (parent_ != nullptr) {
    record_.parent = parent_->record_.id;
    record_.root = parent_->record_.root;
    record_.op = op != 0 ? op : parent_->record_.op;
  } else {
    record_.root = name;
    record_.op = op;
  }
  t_open_span = this;
  record_.start = NowSeconds();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  record_.end = NowSeconds();
  t_open_span = parent_;
  Tracer::Record(record_);
}

double SpanSummary::Total(const std::string& name,
                          const std::string& root) const {
  double total = 0.0;
  for (const auto& [key, layer] : layers) {
    if (key.second == name && (root.empty() || key.first == root)) {
      total += layer.total_s;
    }
  }
  return total;
}

std::vector<double> SpanSummary::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [key, layer] : layers) {
    if (key.second == name) {
      out.insert(out.end(), layer.durations.begin(), layer.durations.end());
    }
  }
  return out;
}

std::string SpanSummary::BreakdownJson() const {
  std::string out = "[";
  bool first = true;
  for (const auto& [key, layer] : layers) {
    const auto root = root_seconds.find(key.first);
    const double root_s = root == root_seconds.end() ? 0.0 : root->second;
    out += ddr::StrPrintf(
        "%s{\"root\":%s,\"layer\":%s,\"count\":%llu,\"total_s\":%s,"
        "\"self_s\":%s,\"share\":%s}",
        first ? "" : ",", JsonString(key.first).c_str(),
        JsonString(key.second).c_str(),
        static_cast<unsigned long long>(layer.count),
        JsonNumber(layer.total_s).c_str(), JsonNumber(layer.self_s).c_str(),
        JsonNumber(root_s > 0 ? layer.self_s / root_s : 0.0).c_str());
    first = false;
  }
  return out + "]";
}

std::string SpanSummary::BreakdownTable() const {
  std::string out = ddr::StrPrintf("%-22s %-34s %8s %10s %10s %7s\n", "root",
                                   "layer", "count", "total_s", "self_s",
                                   "share");
  for (const auto& [key, layer] : layers) {
    const auto root = root_seconds.find(key.first);
    const double root_s = root == root_seconds.end() ? 0.0 : root->second;
    out += ddr::StrPrintf("%-22s %-34s %8llu %10.4f %10.4f %6.1f%%\n",
                          key.first.c_str(), key.second.c_str(),
                          static_cast<unsigned long long>(layer.count),
                          layer.total_s, layer.self_s,
                          root_s > 0 ? 100.0 * layer.self_s / root_s : 0.0);
  }
  return out;
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  // Self time: a span's duration minus the durations of the spans nested
  // directly inside it (children are always on the parent's thread, so
  // they never overlap each other).
  std::map<uint64_t, double> child_seconds;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      child_seconds[span.parent] += span.seconds();
    }
  }
  SpanSummary summary;
  for (const SpanRecord& span : spans) {
    LayerTime& layer = summary.layers[{span.root, span.name}];
    ++layer.count;
    layer.total_s += span.seconds();
    const auto children = child_seconds.find(span.id);
    layer.self_s += span.seconds() -
                    (children == child_seconds.end() ? 0.0 : children->second);
    layer.durations.push_back(span.seconds());
    if (span.parent == 0) {
      summary.root_seconds[span.root] += span.seconds();
    }
  }
  return summary;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::string& stamp_json) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  double first_start = spans.empty() ? 0.0 : spans.front().start;
  for (const SpanRecord& span : spans) {
    first_start = std::min(first_start, span.start);
  }
  out << "{\"perfbench\":" << stamp_json << "}\n";
  for (const SpanRecord& span : spans) {
    out << ddr::StrPrintf(
        "{\"name\":%s,\"root\":%s,\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
        "\"thread\":%u,\"start_us\":%.3f,\"dur_us\":%.3f}\n",
        JsonString(span.name).c_str(), JsonString(span.root).c_str(),
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.op), span.thread,
        (span.start - first_start) * 1e6, span.seconds() * 1e6);
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- inputs

ddr::RecordedExecution MakeSyntheticRecording(uint64_t num_events,
                                              uint64_t seed) {
  ddr::RecordedExecution recording;
  recording.model = "synthetic";
  ddr::Rng rng(seed);
  ddr::SimTime now = 0;
  recording.log.Reserve(num_events);
  for (uint64_t seq = 0; seq < num_events; ++seq) {
    Event event;
    event.seq = seq;
    now += 20 + rng.NextIndex(80);
    event.time = now;
    event.fiber = static_cast<ddr::FiberId>(seq % 6);
    event.node = static_cast<ddr::NodeId>(seq % 3);
    event.obj = 10 + seq % 12;
    event.region = static_cast<ddr::RegionId>(seq % 4);
    event.type =
        seq % 2 == 0 ? ddr::EventType::kSharedRead : ddr::EventType::kRngDraw;
    event.value = rng.NextIndex(1u << 20);
    event.bytes = 8;
    recording.log.Append(event);
  }
  recording.recorded_events = num_events;
  recording.intercepted_events = num_events;
  return recording;
}

uint64_t FingerprintEvents(const std::vector<Event>& events) {
  ddr::Fingerprint fp;
  for (const Event& event : events) {
    fp.Mix(event.SemanticHash());
  }
  return fp.value();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return ddr::HashCombine(ddr::HashCombine(0x5eedULL, seed), salt);
}

// ------------------------------------------------------- decomposed read

namespace {

// Section framing never exceeds kind + codec/filter byte + two varints.
constexpr size_t kMaxSectionHeaderBytes = 2 + 10 + 10;

// One entry through the decomposed path; `trace` supplies the chunk table.
ddr::Result<ddr::EventLog> ReadEntryDecomposed(
    const ddr::RandomAccessFile& file, const ddr::CorpusEntry& entry,
    const ddr::TraceReader& trace) {
  ddr::EventLog log;
  log.Reserve(trace.total_events());
  for (const ddr::TraceChunkInfo& chunk : trace.chunks()) {
    std::vector<uint8_t> header_buf;
    std::vector<uint8_t> stored_buf;
    std::vector<uint8_t> decompressed;
    std::span<const uint8_t> payload;
    ddr::TraceFilter filter = ddr::TraceFilter::kNone;
    {
      Span section_span("trace.section_read");
      if (chunk.file_offset >= entry.length) {
        return ddr::InvalidArgumentError("chunk offset past end of entry");
      }
      const size_t header_bytes = static_cast<size_t>(std::min<uint64_t>(
          kMaxSectionHeaderBytes, entry.length - chunk.file_offset));
      ASSIGN_OR_RETURN(
          std::span<const uint8_t> header,
          file.Read(entry.offset + chunk.file_offset, header_bytes,
                    &header_buf));
      ddr::Decoder decoder(header.data(), header.size());
      ASSIGN_OR_RETURN(ddr::TraceSectionHeader section,
                       ddr::DecodeTraceSectionHeader(&decoder));
      if (section.kind != ddr::TraceSection::kEventChunk) {
        return ddr::InvalidArgumentError("chunk section kind mismatch");
      }
      const uint64_t payload_offset =
          chunk.file_offset + (header.size() - decoder.remaining());
      if (section.stored_size > entry.length ||
          payload_offset + section.stored_size + 4 > entry.length) {
        return ddr::InvalidArgumentError("chunk payload past end of entry");
      }
      const size_t stored_size = static_cast<size_t>(section.stored_size);
      ASSIGN_OR_RETURN(std::span<const uint8_t> stored,
                       file.Read(entry.offset + payload_offset, stored_size + 4,
                                 &stored_buf));
      ddr::Decoder crc_decoder(stored.data() + stored_size, 4);
      ASSIGN_OR_RETURN(uint32_t expected_crc, crc_decoder.GetFixed32());
      uint32_t actual_crc = 0;
      {
        Span crc_span("util.crc32");
        actual_crc = ddr::Crc32(stored.data(), stored_size);
      }
      if (actual_crc != expected_crc) {
        return ddr::InvalidArgumentError("chunk CRC mismatch");
      }
      filter = section.filter;
      if (section.codec == ddr::TraceCodec::kRaw) {
        payload = stored.first(stored_size);
      } else {
        Span ddrz_span("trace.ddrz");
        ASSIGN_OR_RETURN(decompressed,
                         ddr::DecompressBlock(
                             stored.data(), stored_size,
                             static_cast<size_t>(section.uncompressed_size)));
        payload = std::span<const uint8_t>(decompressed);
      }
    }
    std::vector<Event> events;
    {
      Span decode_span("trace.chunk_decode");
      ASSIGN_OR_RETURN(events,
                       ddr::DecodeEventChunkPayload(payload, filter,
                                                    chunk.first_event,
                                                    chunk.event_count));
    }
    Span assemble_span("record.log_assemble");
    log.AppendAll(events.data(), events.size());
  }
  if (log.size() != trace.total_events()) {
    return ddr::InvalidArgumentError(
        "decoded event count disagrees with footer");
  }
  return log;
}

}  // namespace

std::vector<std::optional<uint64_t>> DecomposedPass(
    const std::string& path, const std::vector<std::string>& names,
    const char* root, const char* op, Report& report) {
  std::vector<std::optional<uint64_t>> fingerprints(names.size());
  auto corpus = ddr::CorpusReader::Open(path);
  auto file = ddr::RandomAccessFile::Open(path);
  report.Check(corpus.ok() && file.ok(),
               path + " opens for the decomposed read");
  if (!corpus.ok() || !file.ok()) {
    return fingerprints;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    const ddr::CorpusEntry* entry = corpus->Find(names[i]);
    ddr::Result<ddr::EventLog> log = ddr::NotFoundError(names[i]);
    if (entry != nullptr) {
      Span root_span(root);
      auto trace = [&] {
        Span span("trace.open");
        return corpus->OpenTrace(*entry);
      }();
      log = trace.ok() ? ReadEntryDecomposed(**file, *entry, *trace)
                       : ddr::Result<ddr::EventLog>(trace.status());
    }
    report.Op(op, log.ok());
    if (log.ok()) {
      fingerprints[i] = FingerprintEvents(log->events());
    }
  }
  return fingerprints;
}

void ColdReadPasses(const std::string& path,
                    const std::vector<std::string>& names, Report& report) {
  auto corpus = ddr::CorpusReader::Open(path);
  report.Check(corpus.ok(), path + " opens for the cold read");
  if (!corpus.ok()) {
    return;
  }
  std::vector<std::optional<uint64_t>> fingerprints(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    Span root("cold_pass");
    auto trace = [&] {
      Span span("trace.open");
      return corpus->OpenTrace(names[i]);
    }();
    Span span("trace.read_all");
    auto log = trace.ok() ? trace->ReadAllEvents()
                          : ddr::Result<ddr::EventLog>(trace.status());
    report.Op("cold_read", log.ok());
    if (log.ok()) {
      fingerprints[i] = FingerprintEvents(log->events());
    }
  }
  report.Metric("trace.bytes_read", static_cast<double>(corpus->bytes_read()),
                "B");
  report.Metric("trace.chunks_decoded",
                static_cast<double>(corpus->cache_stats().misses), "count");
  const std::vector<std::optional<uint64_t>> decomposed = DecomposedPass(
      path, names, "cold_decomposed", "cold_decomposed_read", report);
  for (size_t i = 0; i < names.size(); ++i) {
    report.Check(fingerprints[i].has_value() && fingerprints[i] == decomposed[i],
                 "library vs decomposed read of " + names[i]);
  }
}

void ColdReadLayerMetrics(Report& report, const SpanSummary& summary) {
  report.Metric("trace.open_s", summary.Total("trace.open", "cold_pass"), "s");
  report.Metric("trace.read_all_s", summary.Total("trace.read_all", "cold_pass"),
                "s");
  DecomposedLayerMetrics(report, summary, "cold_decomposed", 1);
}

const char* ReplaySpanName(ddr::DeterminismModel model) {
  switch (model) {
    case ddr::DeterminismModel::kPerfect:
      return "core.replay_and_score.perfect";
    case ddr::DeterminismModel::kValue:
      return "core.replay_and_score.value";
    case ddr::DeterminismModel::kOutputHeavy:
      return "core.replay_and_score.output-heavy";
    case ddr::DeterminismModel::kOutputOnly:
      return "core.replay_and_score.output";
    case ddr::DeterminismModel::kFailure:
      return "core.replay_and_score.failure";
    case ddr::DeterminismModel::kDebugRcse:
      return "core.replay_and_score.debug-rcse";
  }
  return "core.replay_and_score.unknown";
}

void ReplayLayerMetrics(Report& report, const SpanSummary& summary,
                        uint64_t iterations, const std::string& root) {
  const std::string prefix = "core.replay_and_score.";
  for (ddr::DeterminismModel model : ddr::AllDeterminismModels()) {
    const std::string span = ReplaySpanName(model);
    LayerMetric(report,
                "core.replay_and_score_s." + span.substr(prefix.size()),
                summary.Total(span, root), iterations, "s");
  }
}

void ReplayCounters::Add(const ddr::ExperimentRow& row) {
  attempts += row.inference.attempts;
  attempt_units += std::max<uint64_t>(1, row.inference.attempts);
  events_simulated += row.inference.total_events_simulated;
  solver_nodes += row.inference.solver_nodes;
  divergences += row.divergences;
  reproduced += row.failure_reproduced ? 1 : 0;
}

void ReplayCounters::Emit(Report& report, uint64_t iterations) const {
  LayerMetric(report, "replay.inference_attempts", attempts, iterations,
              "count");
  LayerMetric(report, "replay.events_simulated", events_simulated, iterations,
              "count");
  LayerMetric(report, "replay.solver_nodes", solver_nodes, iterations,
              "count");
  LayerMetric(report, "replay.divergences", divergences, iterations, "count");
  // Useful outcomes per attempt: reproduced replays over replay attempts
  // (an inference-free replay is one attempt).
  report.Metric("replay.reproduced_per_attempt",
                attempt_units == 0 ? 0.0
                                   : static_cast<double>(reproduced) /
                                         static_cast<double>(attempt_units),
                "frac");
}

void DecomposedLayerMetrics(Report& report, const SpanSummary& summary,
                            const std::string& root, uint64_t iterations) {
  for (const char* layer : {"trace.section_read", "util.crc32", "trace.ddrz",
                            "trace.chunk_decode", "record.log_assemble"}) {
    LayerMetric(report, std::string(layer) + "_s", summary.Total(layer, root),
                iterations, "s");
  }
}

}  // namespace perfbench
