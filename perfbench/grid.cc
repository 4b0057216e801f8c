// grid: the paper's Figure-1 pipeline. BatchRunner::Run records, replays
// and scores every bundled scenario x determinism model cell on four
// threads and writes a DDRC bundle; ReplayCorpus then re-scores that
// bundle from disk. The bundle is small (24 entries, a few hundred KB),
// so nearly all the time is simulation, recording, replay and inference.
//
// Inputs: the four bundled scenarios in the library's model order; the
// seed is not used. A seeded cell order would move the heavy cells
// around the four threads and change the grid's wall time by up to ~25%
// from seed to seed: variance of the schedule, not of the code.
//
// Traced run: the same pipeline mirrored call by call, so each layer gets
// a span. As in BatchRunner::Run: ScenarioPrep, then per cell on four
// threads ExperimentHarness::Record, ReplayAndScore and
// TraceWriter::Serialize, then CorpusWriter::AddImage of every image and
// Finish. As in ReplayCorpus: CorpusReader::LoadRecording and
// ReplayAndScore per cell.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/bench_common.h"
#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/trace/trace_writer.h"
#include "src/util/string_util.h"

namespace perfbench {
namespace {

using ddr::BatchCell;
using ddr::BugScenario;
using ddr::DeterminismModel;
using ddr::ScenarioPrep;

constexpr char kGridPath[] = "grid.ddrc";
constexpr char kMirrorPath[] = "grid-mirror.ddrc";

struct GridSetup {
  std::vector<BugScenario> scenarios;
  // Preps (with training) for the in-process reference harnesses.
  std::vector<std::shared_ptr<const ScenarioPrep>> preps;
};

GridSetup SetUp(Report& report) {
  GridSetup setup;
  setup.scenarios = ddr::AllBugScenarios();
  setup.preps.resize(setup.scenarios.size());
  ParallelFor(setup.scenarios.size(), kLoadThreads, [&](size_t i) {
    auto prep = ScenarioPrep::Compute(setup.scenarios[i], true);
    report.Check(prep.ok(), "grid prep of " + setup.scenarios[i].name);
    if (prep.ok()) {
      setup.preps[i] = std::make_shared<const ScenarioPrep>(std::move(*prep));
    }
  });
  return setup;
}

// The scenario x model cells in grid order.
struct CellSpec {
  size_t scenario = 0;
  DeterminismModel model = DeterminismModel::kPerfect;
};

std::vector<CellSpec> Cells(const GridSetup& setup) {
  std::vector<CellSpec> cells;
  for (size_t s = 0; s < setup.scenarios.size(); ++s) {
    for (DeterminismModel model : ddr::AllDeterminismModels()) {
      cells.push_back(CellSpec{s, model});
    }
  }
  return cells;
}

// Row fields the output checks compare (wall-clock DE/DU excluded).
struct Verdict {
  bool reproduced = false;
  std::string cause;
  double fidelity = 0.0;
  bool operator==(const Verdict&) const = default;
};

Verdict VerdictOf(const ddr::ExperimentRow& row) {
  return Verdict{row.failure_reproduced, row.diagnosed_cause.value_or("<none>"),
                 row.fidelity};
}

// One untraced iteration of the library pipeline; returns the batch
// cells (empty on failure) and appends the two timings.
std::vector<BatchCell> LibraryIteration(const GridSetup& setup, Report& report,
                                        std::vector<double>* grid_seconds,
                                        std::vector<double>* replay_seconds) {
  const size_t cell_count = Cells(setup).size();
  ddr::BatchOptions options;
  options.threads = kLoadThreads;
  options.corpus_path = kGridPath;
  std::remove(kGridPath);

  double start = NowSeconds();
  auto batch = ddr::BatchRunner(setup.scenarios, options).Run();
  grid_seconds->push_back(NowSeconds() - start);
  const bool batch_ok = batch.ok() && batch->cells.size() == cell_count;
  for (size_t i = 0; i < cell_count; ++i) {
    report.Op("grid.cell", batch_ok);
  }
  report.Check(batch.ok(), "BatchRunner::Run: " +
                               (batch.ok() ? std::string("ok")
                                           : batch.status().ToString()));
  if (!batch_ok) {
    return {};
  }

  ddr::ReplayCorpusOptions replay_options;
  replay_options.threads = kLoadThreads;
  start = NowSeconds();
  auto replay = ddr::ReplayCorpus(kGridPath, setup.scenarios, replay_options);
  replay_seconds->push_back(NowSeconds() - start);
  const bool replay_ok = replay.ok() && replay->cells.size() == cell_count;
  for (size_t i = 0; i < cell_count; ++i) {
    report.Op("grid.replay_cell", replay_ok);
  }
  report.Check(replay_ok, "ReplayCorpus returns every cell");
  if (replay_ok) {
    for (size_t i = 0; i < cell_count; ++i) {
      report.Check(ddr::RowSignature(batch->cells[i]) ==
                       ddr::RowSignature(replay->cells[i]),
                   "BatchRunner vs ReplayCorpus row of " +
                       batch->cells[i].recording_name);
    }
  }
  return std::move(batch->cells);
}

// Side outputs of one mirror iteration.
struct MirrorTotals {
  double production_s = 0.0;   // summed ScenarioPrep production wall time
  uint64_t bytes_written = 0;  // CorpusWriter::bytes_written of the bundle
};

// One iteration of the mirrored pipeline, with a span around every layer
// call when tracing is on. Returns rows in grid order.
std::vector<ddr::ExperimentRow> MirrorIteration(const GridSetup& setup,
                                                Report& report,
                                                MirrorTotals* totals) {
  const std::vector<CellSpec> cells = Cells(setup);
  std::vector<std::shared_ptr<const ScenarioPrep>> preps(
      setup.scenarios.size());
  ParallelFor(setup.scenarios.size(), kLoadThreads, [&](size_t s) {
    Span span("core.prep");
    auto prep = ScenarioPrep::Compute(setup.scenarios[s], true);
    report.Op("grid.prep", prep.ok());
    if (prep.ok()) {
      preps[s] = std::make_shared<const ScenarioPrep>(std::move(*prep));
    }
  });
  for (const auto& prep : preps) {
    if (prep == nullptr) {
      return {};
    }
    totals->production_s += prep->production_wall_seconds;
  }

  // BatchRunner's per-cell task: record, replay and score in process,
  // serialize the recording to a DDRT image.
  struct CellOutput {
    std::string name;
    std::string recorder_model;
    uint64_t event_count = 0;
    double wall_seconds = 0.0;
    ddr::ExperimentRow row;
    std::vector<uint8_t> image;
  };
  std::vector<CellOutput> outputs(cells.size());
  ParallelFor(cells.size(), kLoadThreads, [&](size_t i) {
    Span cell_span("grid.cell", i + 1);
    const BugScenario& scenario = setup.scenarios[cells[i].scenario];
    ddr::ExperimentHarness harness(scenario, preps[cells[i].scenario]);
    const ddr::RecordedExecution recording = [&] {
      Span span("record");
      return harness.Record(cells[i].model);
    }();
    CellOutput& out = outputs[i];
    out.name = scenario.name + "/" + recording.model;
    out.recorder_model = recording.model;
    out.event_count = recording.log.size();
    out.wall_seconds = recording.original_outcome.stats.wall_seconds;
    {
      Span span(ReplaySpanName(cells[i].model));
      out.row = harness.ReplayAndScore(cells[i].model, recording,
                                       out.wall_seconds);
    }
    ddr::TraceWriteOptions options;
    options.scenario = scenario.name;
    options.original_wall_seconds = out.wall_seconds;
    Span span("trace.write");
    out.image = ddr::TraceWriter(options).Serialize(recording);
  });

  // BatchRunner's bundle write: every image in cell order, then Finish.
  {
    Span write_root("grid.write");
    Span span("trace.finish");
    ddr::CorpusWriter writer(kMirrorPath);
    bool ok = writer.Begin().ok();
    for (size_t i = 0; i < cells.size() && ok; ++i) {
      const CellOutput& out = outputs[i];
      ok = writer
               .AddImage(out.name, out.image, out.recorder_model,
                         setup.scenarios[cells[i].scenario].name,
                         out.event_count, out.wall_seconds)
               .ok();
    }
    ok = ok && writer.Finish().ok();
    totals->bytes_written += writer.bytes_written();
    report.Op("grid.write", ok);
    if (!ok) {
      return {};
    }
  }

  auto corpus = ddr::CorpusReader::Open(kMirrorPath);
  report.Op("grid.open", corpus.ok());
  if (!corpus.ok()) {
    return {};
  }
  // ReplayCorpus: load each recording back and replay + score it.
  std::vector<ddr::ExperimentRow> rows(cells.size());
  ParallelFor(cells.size(), kLoadThreads, [&](size_t i) {
    Span cell_span("grid.replay_cell", i + 1);
    double original_wall_seconds = 0.0;
    ddr::Result<ddr::RecordedExecution> recording = [&] {
      Span span("trace.load_recording");
      return corpus->LoadRecording(outputs[i].name, &original_wall_seconds);
    }();
    report.Op("grid.replay_cell", recording.ok());
    if (!recording.ok()) {
      return;
    }
    ddr::ExperimentHarness harness(setup.scenarios[cells[i].scenario],
                                   preps[cells[i].scenario]);
    Span span(ReplaySpanName(cells[i].model));
    rows[i] = harness.ReplayAndScore(cells[i].model, *recording,
                                     original_wall_seconds);
  });
  for (size_t i = 0; i < cells.size(); ++i) {
    report.Check(ddr::RowSignature(BatchCell{"", outputs[i].name,
                                             outputs[i].row}) ==
                     ddr::RowSignature(BatchCell{"", outputs[i].name, rows[i]}),
                 "mirror in-process vs from-disk row of " + outputs[i].name);
  }
  return rows;
}

// In-process ExperimentHarness::RunModel per cell: the reference the
// pipelines' verdicts must equal.
std::vector<Verdict> ReferenceVerdicts(const GridSetup& setup) {
  const std::vector<CellSpec> cells = Cells(setup);
  std::vector<Verdict> verdicts(cells.size());
  ParallelFor(cells.size(), kLoadThreads, [&](size_t i) {
    if (setup.preps[cells[i].scenario] == nullptr) {
      return;
    }
    ddr::ExperimentHarness harness(setup.scenarios[cells[i].scenario],
                                   setup.preps[cells[i].scenario]);
    verdicts[i] = VerdictOf(harness.RunModel(cells[i].model));
  });
  return verdicts;
}

std::string CellName(const GridSetup& setup, size_t i) {
  const CellSpec cell = Cells(setup)[i];
  return setup.scenarios[cell.scenario].name + "/" +
         std::string(ddr::DeterminismModelName(cell.model));
}

void RunUntraced(const RunConfig& config, const GridSetup& setup,
                 Report& report) {
  std::vector<double> grid_seconds;
  std::vector<double> replay_seconds;
  std::vector<BatchCell> last;
  const double deadline = NowSeconds() + config.seconds;
  do {
    last = LibraryIteration(setup, report, &grid_seconds, &replay_seconds);
  } while (!last.empty() && NowSeconds() < deadline);

  // The fast decile of the iteration times, not their median: other load
  // on the machine only ever adds time, and its spells can cover most of
  // a run, so the fast decile is the steadier estimate of the code's own
  // speed (see README, Steadiness).
  const double cells = static_cast<double>(Cells(setup).size());
  report.Metric("ops_per_s", cells / Percentile(grid_seconds, kFastDecile),
                "ops/s");
  report.Metric("replay_ms",
                Percentile(replay_seconds, kFastDecile) * 1e3 / cells, "ms");
  report.Detail("grid_s", JsonArray(grid_seconds));
  report.Detail("grid_replay_s", JsonArray(replay_seconds));

  const std::vector<Verdict> reference = ReferenceVerdicts(setup);
  report.Check(last.size() == reference.size(), "grid produced every cell");
  for (size_t i = 0; i < last.size() && i < reference.size(); ++i) {
    report.Check(VerdictOf(last[i].row) == reference[i],
                 "BatchRunner vs RunModel verdict of " + CellName(setup, i));
  }
}

void RunTraced(const RunConfig& config, const GridSetup& setup,
               Report& report) {
  // Alternate untraced and traced mirror iterations: the traced ones give
  // the layer split, the pair gives the tracing overhead.
  std::vector<double> untraced_seconds;
  std::vector<double> traced_seconds;
  std::vector<ddr::ExperimentRow> rows;
  MirrorTotals totals;  // over the traced iterations
  uint64_t record_events = 0;
  uint64_t record_bytes = 0;
  ReplayCounters replay;
  const double deadline = NowSeconds() + config.seconds;
  do {
    for (bool traced : {false, true}) {
      Tracer::SetEnabled(traced);
      MirrorTotals iteration;
      const double start = NowSeconds();
      rows = MirrorIteration(setup, report, &iteration);
      (traced ? traced_seconds : untraced_seconds)
          .push_back(NowSeconds() - start);
      Tracer::SetEnabled(false);
      if (!traced || rows.empty()) {
        continue;
      }
      totals.production_s += iteration.production_s;
      totals.bytes_written += iteration.bytes_written;
      for (const ddr::ExperimentRow& row : rows) {
        record_events += row.recorded_events;
        record_bytes += row.log_bytes;
        replay.Add(row);
      }
    }
  } while (!rows.empty() && NowSeconds() < deadline);

  // A cold read of the last mirror bundle, after the timed iterations.
  if (!rows.empty()) {
    auto corpus = ddr::CorpusReader::Open(kMirrorPath);
    report.Check(corpus.ok(), "mirror bundle opens for the cold read");
    std::vector<std::string> names;
    if (corpus.ok()) {
      for (const ddr::CorpusEntry& entry : corpus->entries()) {
        names.push_back(entry.name);
      }
    }
    Tracer::SetEnabled(true);
    ColdReadPasses(kMirrorPath, names, report);
    Tracer::SetEnabled(false);
  }

  const std::vector<Verdict> reference = ReferenceVerdicts(setup);
  report.Check(rows.size() == reference.size(), "mirror produced every cell");
  for (size_t i = 0; i < rows.size() && i < reference.size(); ++i) {
    report.Check(VerdictOf(rows[i]) == reference[i],
                 "mirror vs RunModel verdict of " + CellName(setup, i));
  }

  const uint64_t n = traced_seconds.size();
  const SpanSummary summary = Summarize(Tracer::Snapshot());
  LayerMetric(report, "core.prep_s", summary.Total("core.prep"), n, "s");
  LayerMetric(report, "sim.production_s", totals.production_s, n, "s");
  LayerMetric(report, "record.s", summary.Total("record"), n, "s");
  LayerMetric(report, "record.events", record_events, n, "count");
  LayerMetric(report, "record.log_bytes", record_bytes, n, "B");
  LayerMetric(report, "trace.write_s", summary.Total("trace.write"), n, "s");
  LayerMetric(report, "trace.finish_s", summary.Total("trace.finish"), n, "s");
  LayerMetric(report, "trace.bytes_written", totals.bytes_written, n, "B");
  // The from-disk replays (ReplayCorpus); the in-process ones under
  // grid.cell are in the layer breakdown.
  ReplayLayerMetrics(report, summary, n, "grid.replay_cell");
  LayerMetric(report, "trace.load_recording_s",
              summary.Total("trace.load_recording"), n, "s");
  replay.Emit(report, n);
  ColdReadLayerMetrics(report, summary);
  const double untraced = Median(untraced_seconds);
  report.Metric("bench.tracing_overhead_frac",
                (Median(traced_seconds) - untraced) / untraced, "frac");
  report.Detail("layers", summary.BreakdownJson());
  std::fprintf(stderr, "%s", summary.BreakdownTable().c_str());
}

}  // namespace

void RunGrid(const RunConfig& config, Report& report) {
  const GridSetup setup = RepeatSetup<GridSetup>(
      report, [&]() { return SetUp(report); });
  if (config.trace) {
    RunTraced(config, setup, report);
  } else {
    RunUntraced(config, setup, report);
  }
  ReportOkFrac(report);
  std::remove(kGridPath);
  std::remove(kMirrorPath);
}

}  // namespace perfbench
