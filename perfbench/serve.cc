// serve: the corpus daemon under a closed-loop debugging load. An
// in-process CorpusServer (default options: 4 workers, 32-deep admission
// queue, mmap, 64 MiB cache) serves a bundle holding the 24 grid
// recordings plus 8 synthetic 50k-event entries (~27 MB decoded, inside
// the cache) on a unix socket. Three closed-loop CorpusClients, with no
// retries, each wait for a reply before sending the next request. Each
// client walks the bundle once per round in a seeded order: Replay of
// every grid entry once and Verify of every synthetic entry three times
// (24 + 24 requests). A fourth thread appends a small entry in place
// (CorpusWriter::AppendTo) every 200 ms. The window closes with one
// Refresh, after the load has stopped, so the server picks the appends
// up; see RunWindow for why there is no refresh inside the window.
//
// Where the shapes come from: the synthetic bundle (8 entries x 50k
// events) and the appended entry (2k events) are those of
// bench/micro_corpus_serve.cc (kEntries / kEventsPerEntry and the
// append-scaling kAppendEvents); a client that walks every entry per
// round is that bench's server section. The 200 ms append cadence, the
// choice of Replay for recordings / Verify for synthetic entries and the
// 1:1 mix have no source in the repository: they are assumptions. The
// mix is 1:1 so that both latency tails rest on as many samples.
//
// Set-up builds the bundle, starts the server, warms each scenario's prep
// with one replay and the cache with one verify per synthetic entry.
//
// Traced run: the window is split into an untraced and a traced half
// (client-side spans per RPC), then the server-side work is mirrored in
// process on the same bundle — ScenarioPrep, CorpusEntryScorer::ScoreEntry,
// LoadRecording + ReplayAndScore, TraceReader::Verify, a cold read pass
// and the decomposed chunk read — so each layer gets a span.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include "perfbench/bench_common.h"
#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/server/corpus_client.h"
#include "src/server/corpus_server.h"
#include "src/server/protocol.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace perfbench {
namespace {

using ddr::CorpusClient;

constexpr char kGridPath[] = "serve-grid.ddrc";
constexpr char kBundlePath[] = "serve.ddrc";
constexpr char kSocketPath[] = "serve.sock";
constexpr uint64_t kSyntheticEntries = 8;
constexpr uint64_t kSyntheticEvents = 50'000;
constexpr uint64_t kAppendEvents = 2'000;
constexpr int kClients = 3;
constexpr int kVerifyCopies = 3;  // per synthetic entry per round (1:1 mix)
constexpr double kAppendIntervalS = 0.2;  // an assumption, see above
// A reply later than this is a deadline error (counted failed), never a
// hang; it is far above any healthy latency.
constexpr int kClientTimeoutMs = 30'000;
// In-process rounds per entry in the traced mirror.
constexpr int kMirrorRounds = 3;
constexpr int kConnectProbes = 16;

ddr::CorpusClientOptions ClientOptions() {
  ddr::CorpusClientOptions options;
  options.timeout_ms = kClientTimeoutMs;
  options.max_retries = 0;
  return options;
}

ddr::Result<CorpusClient> Connect() {
  Span span("server.connect");
  return CorpusClient::ConnectUnixSocket(kSocketPath, ClientOptions());
}

struct ServeSetup {
  std::vector<std::string> grid_entries;
  std::vector<std::string> synthetic_entries;
  std::unique_ptr<ddr::CorpusServer> server;
};

std::string SyntheticName(uint64_t i) {
  return ddr::StrPrintf("synthetic/%02llu", static_cast<unsigned long long>(i));
}

ServeSetup SetUp(uint64_t seed, Report& report) {
  ServeSetup setup;
  const std::vector<ddr::BugScenario> scenarios = ddr::AllBugScenarios();
  ddr::BatchOptions batch_options;
  batch_options.threads = kLoadThreads;
  batch_options.corpus_path = kGridPath;
  std::remove(kGridPath);
  auto batch = ddr::BatchRunner(scenarios, batch_options).Run();
  auto grid = batch.ok() ? ddr::CorpusReader::Open(kGridPath)
                         : ddr::Result<ddr::CorpusReader>(batch.status());
  report.Check(grid.ok(), "serve grid recordings build");
  if (!grid.ok()) {
    return setup;
  }

  ddr::CorpusWriter writer(kBundlePath);
  bool ok = writer.Begin().ok();
  for (const ddr::CorpusEntry& entry : grid->entries()) {
    ok = ok && writer.AddImageWindow(entry, *grid).ok();
    setup.grid_entries.push_back(entry.name);
  }
  for (uint64_t i = 0; i < kSyntheticEntries && ok; ++i) {
    ok = writer
             .Add(SyntheticName(i),
                  MakeSyntheticRecording(kSyntheticEvents,
                                         DeriveSeed(seed, 300 + i)))
             .ok();
    setup.synthetic_entries.push_back(SyntheticName(i));
  }
  ok = ok && writer.Finish().ok();
  report.Check(ok, "serve bundle builds");
  if (!ok) {
    return setup;
  }

  ddr::CorpusServerOptions options;
  options.socket_path = kSocketPath;
  auto server = ddr::CorpusServer::Start(kBundlePath, options);
  report.Check(server.ok(), "serve server starts");
  if (!server.ok()) {
    return setup;
  }
  setup.server = std::move(*server);

  // Warm-up: one replay per scenario computes each scenario's prep in
  // the server's scorer; one verify per synthetic entry fills the cache.
  auto client = CorpusClient::ConnectUnixSocket(kSocketPath, ClientOptions());
  report.Check(client.ok(), "serve warm-up client connects");
  if (!client.ok()) {
    return setup;
  }
  std::set<std::string> warmed;
  for (const ddr::CorpusEntry& entry : grid->entries()) {
    if (warmed.insert(entry.scenario).second) {
      report.Check(client->Replay(entry.name).ok(),
                   "warm-up replay of " + entry.name);
    }
  }
  for (const std::string& name : setup.synthetic_entries) {
    report.Check(client->Verify(name).ok(), "warm-up verify of " + name);
  }
  return setup;
}

constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

// Everything one load window measured.
struct Window {
  double start = 0.0;         // on the steady clock
  double load_seconds = 0.0;  // the load phase as asked for
  double seconds = 0.0;       // as it ran, until every client stopped
  std::vector<double> replay_ms;  // failed requests read +infinity
  std::vector<double> verify_ms;
  std::vector<double> completed_at;  // steady clock, completed RPCs only
  // (steady clock at the end, latency) of every replay; failed ones read
  // +infinity.
  std::vector<std::pair<double, double>> replay_done;
  std::vector<double> append_ms;
  double refresh_ms = kFailedLatency;  // the closing refresh
  uint64_t appends = 0;
  uint64_t append_bytes_written = 0;
  std::vector<std::string> appended;  // names, in order
  // entry name -> every distinct RowSignature a replay returned.
  std::map<std::string, std::set<std::string>> signatures;
  ddr::ServeStats stats_before;
  ddr::ServeStats stats_after;  // after the closing refresh and re-warm
};

void ClientLoop(const ServeSetup& setup, uint64_t seed, int index,
                double deadline, Report& report, std::mutex& mu,
                Window& window) {
  auto client = Connect();
  report.Op("serve.connect", client.ok());
  if (!client.ok()) {
    return;
  }
  // One round requests every entry, in a fresh seeded order, so each
  // client's mix of cheap and expensive requests is the same whatever
  // the seed.
  struct Request {
    bool replay = false;
    const std::string* name = nullptr;
  };
  std::vector<Request> deck;
  for (const std::string& name : setup.grid_entries) {
    deck.push_back(Request{true, &name});
  }
  for (int copy = 0; copy < kVerifyCopies; ++copy) {
    for (const std::string& name : setup.synthetic_entries) {
      deck.push_back(Request{false, &name});
    }
  }
  ddr::Rng rng(DeriveSeed(seed, 400 + static_cast<uint64_t>(index)));
  std::vector<double> replay_ms;
  std::vector<double> verify_ms;
  std::map<std::string, std::set<std::string>> signatures;
  std::vector<double> completed_at;
  std::vector<std::pair<double, double>> replay_done;
  uint64_t op = static_cast<uint64_t>(index + 1) << 32;
  size_t next = deck.size();
  while (NowSeconds() < deadline) {
    if (next == deck.size()) {
      rng.Shuffle(&deck);
      next = 0;
    }
    const Request request = deck[next++];
    const std::string& name = *request.name;
    ++op;
    const double start = NowSeconds();
    if (request.replay) {
      ddr::Result<ddr::BatchCell> cell = [&] {
        Span span("rpc.replay", op);
        return client->Replay(name);
      }();
      const double ms = (NowSeconds() - start) * 1e3;
      report.Op("rpc.replay", cell.ok());
      replay_ms.push_back(cell.ok() ? ms : kFailedLatency);
      replay_done.emplace_back(start + ms * 1e-3,
                               cell.ok() ? ms : kFailedLatency);
      if (cell.ok()) {
        signatures[name].insert(ddr::RowSignature(*cell));
        completed_at.push_back(start + ms * 1e-3);
      }
    } else {
      ddr::Result<uint64_t> verified = [&] {
        Span span("rpc.verify", op);
        return client->Verify(name);
      }();
      const double ms = (NowSeconds() - start) * 1e3;
      const bool ok = verified.ok() && *verified == 1;
      report.Op("rpc.verify", ok);
      verify_ms.push_back(ok ? ms : kFailedLatency);
      if (ok) {
        completed_at.push_back(start + ms * 1e-3);
      }
      report.Check(!verified.ok() || *verified == 1,
                   "verify of " + name + " covers one entry");
    }
  }
  std::lock_guard<std::mutex> lock(mu);
  window.replay_ms.insert(window.replay_ms.end(), replay_ms.begin(),
                          replay_ms.end());
  window.verify_ms.insert(window.verify_ms.end(), verify_ms.begin(),
                          verify_ms.end());
  window.completed_at.insert(window.completed_at.end(), completed_at.begin(),
                             completed_at.end());
  window.replay_done.insert(window.replay_done.end(), replay_done.begin(),
                            replay_done.end());
  for (auto& [name, set] : signatures) {
    window.signatures[name].insert(set.begin(), set.end());
  }
}

// Appends one small entry in place every kAppendIntervalS; `next_append`
// numbers entries across windows.
void AppendLoop(uint64_t seed, double deadline, Report& report,
                uint64_t* next_append, Window& window) {
  for (double due = NowSeconds(); due < deadline; due += kAppendIntervalS) {
    const double now = NowSeconds();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    const uint64_t i = (*next_append)++;
    const std::string name =
        ddr::StrPrintf("append/%04llu", static_cast<unsigned long long>(i));
    const ddr::RecordedExecution recording =
        MakeSyntheticRecording(kAppendEvents, DeriveSeed(seed, 10'000 + i));
    const double start = NowSeconds();
    bool ok = false;
    {
      Span span("trace.append", (uint64_t{1} << 40) + i);
      auto writer = ddr::CorpusWriter::AppendTo(kBundlePath);
      ok = writer.ok() && (*writer)->Add(name, recording).ok() &&
           (*writer)->Finish().ok();
      if (ok) {
        window.append_bytes_written += (*writer)->bytes_written();
      }
    }
    const double ms = (NowSeconds() - start) * 1e3;
    report.Op("append", ok);
    window.append_ms.push_back(ok ? ms : kFailedLatency);
    if (ok) {
      ++window.appends;
      window.appended.push_back(name);
    }
  }
}

ddr::ServeStats ServerStats(Report& report) {
  auto client = CorpusClient::ConnectUnixSocket(kSocketPath, ClientOptions());
  auto stats = client.ok() ? client->Stats()
                           : ddr::Result<ddr::ServeStats>(client.status());
  report.Op("stats", stats.ok());
  return stats.ok() ? *stats : ddr::ServeStats{};
}

// The closing Refresh of a window, with the load stopped; false if it
// failed or did not pick the appends up.
bool ClosingRefresh(Report& report, Window& window) {
  auto client = CorpusClient::ConnectUnixSocket(kSocketPath, ClientOptions());
  const double start = NowSeconds();
  auto refresh = client.ok() ? client->Refresh()
                             : ddr::Result<ddr::ServeRefresh>(client.status());
  const double ms = (NowSeconds() - start) * 1e3;
  report.Op("refresh", refresh.ok());
  window.refresh_ms = refresh.ok() ? ms : kFailedLatency;
  return refresh.ok() && (window.appends == 0 || refresh->picked_up);
}

// One load window. The server answers Refresh with CorpusReader::Reopen,
// which opens the bundle as a new file: every cached chunk is keyed by
// the old file's id, so a refresh that lands re-colds the whole working
// set. Under the closed-loop readers a refresh also waits for the
// reader lock for seconds (glibc's shared mutex prefers readers), so how
// many refreshes land inside a window would be left to the scheduler,
// and each one adds a burst of cold verifies to the tails. The window
// therefore holds exactly one refresh, after the load has stopped; a
// verify per synthetic entry then re-warms the cache for the next
// window, and the re-decoded chunks show in the cache counters.
Window RunWindow(const ServeSetup& setup, uint64_t seed, double seconds,
                 uint64_t* next_append, Report& report) {
  Window window;
  window.stats_before = ServerStats(report);
  std::mutex mu;
  const double start = NowSeconds();
  const double deadline = start + seconds;
  window.start = start;
  window.load_seconds = seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      ClientLoop(setup, seed, c, deadline, report, mu, window);
    });
  }
  AppendLoop(seed, deadline, report, next_append, window);
  for (std::thread& thread : threads) {
    thread.join();
  }
  window.seconds = NowSeconds() - start;
  report.Check(ClosingRefresh(report, window),
               "closing refresh picks up the appended entries");
  auto client = CorpusClient::ConnectUnixSocket(kSocketPath, ClientOptions());
  for (const std::string& name : setup.synthetic_entries) {
    report.Op("serve.rewarm", client.ok() && client->Verify(name).ok());
  }
  window.stats_after = ServerStats(report);
  return window;
}

// Failed requests miss every percentile: they read as the whole window.
double LatencyPercentile(std::vector<double> ms, double q, double window_s) {
  for (double& value : ms) {
    value = std::min(value, window_s * 1e3);
  }
  return Percentile(std::move(ms), q);
}

// Replay rows over the wire must equal in-process ScoreEntry rows, and
// every appended entry must be listed after the closing refreshes.
void CheckOutputs(const ServeSetup& setup,
                  const std::vector<const Window*>& windows, Report& report) {
  auto corpus = ddr::CorpusReader::Open(kBundlePath);
  report.Check(corpus.ok(), "serve bundle opens for the checks");
  if (!corpus.ok()) {
    return;
  }
  std::map<std::string, std::set<std::string>> replayed;
  std::vector<std::string> appended;
  for (const Window* window : windows) {
    for (const auto& [name, signatures] : window->signatures) {
      replayed[name].insert(signatures.begin(), signatures.end());
    }
    appended.insert(appended.end(), window->appended.begin(),
                    window->appended.end());
  }
  const ddr::CorpusEntryScorer scorer(ddr::AllBugScenarios());
  for (const auto& [name, signatures] : replayed) {
    const ddr::CorpusEntry* entry = corpus->Find(name);
    auto cell = entry != nullptr
                    ? scorer.ScoreEntry(*corpus, *entry)
                    : ddr::Result<ddr::BatchCell>(ddr::NotFoundError(name));
    report.Check(cell.ok() && signatures.size() == 1 &&
                     *signatures.begin() == ddr::RowSignature(*cell),
                 "replay over the wire vs in-process ScoreEntry of " + name);
  }
  auto client = CorpusClient::ConnectUnixSocket(kSocketPath, ClientOptions());
  auto listed = client.ok() ? client->List()
                            : ddr::Result<std::vector<ddr::ServeEntry>>(
                                  client.status());
  report.Op("list", listed.ok());
  std::set<std::string> names;
  if (listed.ok()) {
    for (const ddr::ServeEntry& entry : *listed) {
      names.insert(entry.name);
    }
  }
  for (const std::string& name : appended) {
    report.Check(names.count(name) == 1, "appended " + name + " is listed");
  }
  report.Check(names.size() == setup.grid_entries.size() +
                                   setup.synthetic_entries.size() +
                                   appended.size(),
               "list holds grid + synthetic + appended entries");
}

// Per whole second of the load phase: the RPCs completed in it, and the
// median latency of the replays that ended in it (a failed one reads as
// the whole window). A second in which no replay ended has no median.
struct PerSecond {
  std::vector<double> completed;
  std::vector<double> replay_p50_ms;
};

PerSecond SplitBySecond(const Window& window) {
  const size_t seconds = static_cast<size_t>(window.load_seconds);
  const auto slot = [&](double t) {
    const double offset = t - window.start;
    return offset >= 0.0 && offset < static_cast<double>(seconds)
               ? static_cast<size_t>(offset)
               : seconds;
  };
  PerSecond out;
  out.completed.assign(seconds, 0.0);
  for (const double t : window.completed_at) {
    if (const size_t s = slot(t); s < seconds) {
      out.completed[s] += 1.0;
    }
  }
  std::vector<std::vector<double>> replay_ms(seconds);
  for (const auto& [t, ms] : window.replay_done) {
    if (const size_t s = slot(t); s < seconds) {
      replay_ms[s].push_back(std::min(ms, window.seconds * 1e3));
    }
  }
  for (std::vector<double>& ms : replay_ms) {
    if (!ms.empty()) {
      out.replay_p50_ms.push_back(Median(std::move(ms)));
    }
  }
  return out;
}

void ReportWindow(const Window& window, Report& report) {
  // The fast decile of the seconds, as on grid: other load on the machine
  // only ever slows a second down, and its spells can cover most of a run.
  const PerSecond per_second = SplitBySecond(window);
  report.Metric("ops_per_s", Percentile(per_second.completed, 1 - kFastDecile),
                "ops/s");
  report.Metric("replay_ms", Percentile(per_second.replay_p50_ms, kFastDecile),
                "ms");
  report.Metric("rpc_replay_p50_ms",
                LatencyPercentile(window.replay_ms, 0.50, window.seconds),
                "ms");
  report.Metric("rpc_replay_p99_ms",
                LatencyPercentile(window.replay_ms, 0.99, window.seconds),
                "ms");
  report.Metric("rpc_verify_p50_ms",
                LatencyPercentile(window.verify_ms, 0.50, window.seconds),
                "ms");
  report.Metric("rpc_verify_p99_ms",
                LatencyPercentile(window.verify_ms, 0.99, window.seconds),
                "ms");
  report.Metric("append_p50_ms",
                LatencyPercentile(window.append_ms, 0.50, window.seconds),
                "ms");
  std::string tails = "{";
  for (const auto& [label, samples] :
       {std::pair<const char*, const std::vector<double>*>{"replay",
                                                            &window.replay_ms},
        {"verify", &window.verify_ms}, {"append", &window.append_ms}}) {
    std::vector<double> pcts;
    for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
      pcts.push_back(LatencyPercentile(*samples, q, window.seconds));
    }
    tails += ddr::StrPrintf("%s\"%s\":%s", tails.size() > 1 ? "," : "",
                            label, JsonArray(pcts).c_str());
  }
  report.Detail("serve_p50_p90_p95_p99_p999_ms", tails + "}");
  report.Detail("rpc_completed_per_second", JsonArray(per_second.completed));
  report.Detail("replay_p50_ms_per_second",
                JsonArray(per_second.replay_p50_ms));
  report.Detail("serve_samples",
                ddr::StrPrintf("{\"replay\":%zu,\"verify\":%zu,\"append\":%zu,"
                               "\"refreshes\":1,\"refresh_ms\":%.6g}",
                               window.replay_ms.size(), window.verify_ms.size(),
                               window.append_ms.size(), window.refresh_ms));
}

double MeanLatency(const Window& window) {
  double total = 0.0;
  for (const std::vector<double>* ms : {&window.replay_ms, &window.verify_ms}) {
    for (double value : *ms) {
      total += std::min(value, window.seconds * 1e3);
    }
  }
  const size_t count = window.replay_ms.size() + window.verify_ms.size();
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

// The traced run's in-process mirror of the server's work on the same
// bundle. Emits the per-layer metrics that need it.
void InProcessMirror(const ServeSetup& setup, Report& report) {
  const std::vector<ddr::BugScenario> scenarios = ddr::AllBugScenarios();
  // scenario name -> (scenario, prep)
  std::map<std::string,
           std::pair<const ddr::BugScenario*,
                     std::shared_ptr<const ddr::ScenarioPrep>>>
      preps;
  double production_s = 0.0;
  for (const ddr::BugScenario& scenario : scenarios) {
    Span root("serve.prep");
    auto prep = [&] {
      Span span("core.prep");
      return ddr::ScenarioPrep::Compute(scenario, false);
    }();
    report.Op("serve.prep", prep.ok());
    if (prep.ok()) {
      production_s += prep->production_wall_seconds;
      preps[scenario.name] = {
          &scenario,
          std::make_shared<const ddr::ScenarioPrep>(std::move(*prep))};
    }
  }
  report.Metric("sim.production_s", production_s, "s");

  for (int i = 0; i < kConnectProbes; ++i) {
    Span root("serve.connect_probe");
    report.Op("serve.connect", Connect().ok());
  }

  auto corpus = ddr::CorpusReader::Open(kBundlePath);
  report.Check(corpus.ok(), "serve bundle opens in process");
  if (!corpus.ok()) {
    return;
  }
  const ddr::CorpusEntryScorer scorer(scenarios);
  ReplayCounters replay;
  for (int round = 0; round < kMirrorRounds; ++round) {
    for (const std::string& name : setup.grid_entries) {
      const ddr::CorpusEntry& entry = *corpus->Find(name);
      auto cell = [&] {
        Span root("serve.score_entry");
        Span span("core.score_entry");
        return scorer.ScoreEntry(*corpus, entry);
      }();
      report.Op("serve.score_entry", cell.ok());
      // The same work split at its layers: load, then replay + score.
      Span root("serve.replay_mirror");
      double original_wall_seconds = 0.0;
      auto recording = [&] {
        Span span("trace.load_recording");
        return corpus->LoadRecording(name, &original_wall_seconds);
      }();
      auto model = ddr::ParseDeterminismModel(entry.model);
      const auto prep = preps.find(entry.scenario);
      if (!recording.ok() || !model.ok() || prep == preps.end()) {
        report.Op("serve.replay_mirror", false);
        continue;
      }
      ddr::ExperimentHarness harness(*prep->second.first, prep->second.second);
      ddr::ExperimentRow row;
      {
        Span span(ReplaySpanName(*model));
        row = harness.ReplayAndScore(*model, *recording, original_wall_seconds);
      }
      report.Op("serve.replay_mirror", true);
      report.Check(!cell.ok() || ddr::RowSignature(*cell) ==
                                     ddr::RowSignature(ddr::BatchCell{
                                         entry.scenario, name, row}),
                   "ScoreEntry vs LoadRecording + ReplayAndScore of " + name);
      replay.Add(row);
    }
  }
  replay.Emit(report, kMirrorRounds);

  // Verify on a warm reader, like the server's.
  for (const std::string& name : setup.synthetic_entries) {
    auto trace = corpus->OpenTrace(name);
    report.Op("serve.verify_warmup", trace.ok() && trace->Verify().ok());
  }
  for (int round = 0; round < kMirrorRounds; ++round) {
    for (const std::string& name : setup.synthetic_entries) {
      Span root("serve.verify");
      Span span("trace.verify");
      auto trace = corpus->OpenTrace(name);
      report.Op("serve.verify", trace.ok() && trace->Verify().ok());
    }
  }

  // Cold read of the synthetic entries: the library path on a fresh
  // reader, then the decomposed path.
  ColdReadPasses(kBundlePath, setup.synthetic_entries, report);
}

void RunTraced(const RunConfig& config, const ServeSetup& setup,
               Report& report) {
  uint64_t next_append = 0;
  const Window untraced = RunWindow(setup, config.seed, config.seconds / 2,
                                    &next_append, report);
  Tracer::SetEnabled(true);
  const Window traced = RunWindow(setup, config.seed, config.seconds / 2,
                                  &next_append, report);
  InProcessMirror(setup, report);
  Tracer::SetEnabled(false);
  CheckOutputs(setup, {&untraced, &traced}, report);

  const SpanSummary summary = Summarize(Tracer::Snapshot());
  report.Metric("core.prep_s", summary.Total("core.prep"), "s");
  LayerMetric(report, "trace.append_s", summary.Total("trace.append"),
              traced.appends, "s");
  LayerMetric(report, "trace.append_bytes_written",
              traced.append_bytes_written, traced.appends, "B");
  ColdReadLayerMetrics(report, summary);
  ReplayLayerMetrics(report, summary, kMirrorRounds);
  LayerMetric(report, "trace.load_recording_s",
              summary.Total("trace.load_recording"), kMirrorRounds, "s");

  const ddr::ChunkCacheStats cache =
      CacheDelta(traced.stats_after.cache, traced.stats_before.cache);
  report.Metric("trace.cache_hits", static_cast<double>(cache.hits), "count");
  report.Metric("trace.cache_misses", static_cast<double>(cache.misses),
                "count");
  report.Metric("trace.cache_evictions", static_cast<double>(cache.evictions),
                "count");
  report.Metric("trace.cache_hit_rate", cache.hit_rate(), "frac");

  const double score_ms =
      Percentile(summary.Durations("core.score_entry"), 0.5) * 1e3;
  const double verify_ms =
      Percentile(summary.Durations("trace.verify"), 0.5) * 1e3;
  report.Metric("core.score_entry_ms", score_ms, "ms");
  report.Metric("trace.verify_ms", verify_ms, "ms");
  report.Metric("server.replay_wire_tax_ms",
                LatencyPercentile(traced.replay_ms, 0.5, traced.seconds) -
                    score_ms,
                "ms");
  report.Metric("server.verify_wire_tax_ms",
                LatencyPercentile(traced.verify_ms, 0.5, traced.seconds) -
                    verify_ms,
                "ms");
  report.Metric("server.connect_ms",
                Percentile(summary.Durations("server.connect"), 0.5) * 1e3,
                "ms");
  report.Metric("server.refresh_ms", traced.refresh_ms, "ms");
  const ddr::ServeStats& s0 = traced.stats_before;
  const ddr::ServeStats& s1 = traced.stats_after;
  report.Metric("server.overload_rejections",
                static_cast<double>(s1.overload_rejections -
                                    s0.overload_rejections),
                "count");
  report.Metric("server.requests_total",
                static_cast<double>(s1.requests_total - s0.requests_total),
                "count");
  report.Metric("server.bytes_served",
                static_cast<double>(s1.bytes_served - s0.bytes_served), "B");
  report.Metric("server.generations_picked_up",
                static_cast<double>(s1.generations_picked_up -
                                    s0.generations_picked_up),
                "count");
  const double untraced_ms = MeanLatency(untraced);
  report.Metric("bench.tracing_overhead_frac",
                (MeanLatency(traced) - untraced_ms) / untraced_ms, "frac");
  report.Detail("layers", summary.BreakdownJson());
  std::fprintf(stderr, "%s", summary.BreakdownTable().c_str());
}

}  // namespace

void RunServe(const RunConfig& config, Report& report) {
  ServeSetup setup = RepeatSetup<ServeSetup>(
      report, [&]() { return SetUp(config.seed, report); });
  if (setup.server != nullptr) {
    if (config.trace) {
      RunTraced(config, setup, report);
    } else {
      uint64_t next_append = 0;
      const Window window =
          RunWindow(setup, config.seed, config.seconds, &next_append, report);
      CheckOutputs(setup, {&window}, report);
      ReportWindow(window, report);
    }
    setup.server->RequestStop();
    setup.server->Wait();
  }
  ReportOkFrac(report);
  std::remove(kGridPath);
  std::remove(kBundlePath);
}

}  // namespace perfbench
