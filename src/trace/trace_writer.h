// TraceWriter: buffered convenience wrapper that serializes a finished
// RecordedExecution into the DDRT v2 chunked file format. Internally it
// drives StreamingTraceWriter (src/trace/streaming_writer.h), so a
// recording streamed to disk during the run and one serialized after the
// fact produce bit-identical files.

#ifndef SRC_TRACE_TRACE_WRITER_H_
#define SRC_TRACE_TRACE_WRITER_H_

#include <string>
#include <vector>

#include "src/record/recorded_execution.h"
#include "src/trace/streaming_writer.h"
#include "src/trace/trace_writer_options.h"

namespace ddr {

// Collects the run-end totals the streaming writer's Finish needs from a
// RecordedExecution (the scenario / wall-seconds fields stay unset so the
// writer falls back to its options).
TraceFinishInfo FinishInfoFor(const RecordedExecution& recording);

class TraceWriter {
 public:
  explicit TraceWriter(TraceWriteOptions options = {})
      : options_(std::move(options)) {}

  // Serializes `recording` to the complete file image (header..trailer).
  std::vector<uint8_t> Serialize(const RecordedExecution& recording) const;

  // Serializes and writes atomically: the image lands in a uniquely named
  // temp file beside `path` (see AtomicFileSink) and is renamed into
  // place only when complete, so `path` never holds a torn file.
  Status WriteFile(const std::string& path,
                   const RecordedExecution& recording) const;

  const TraceWriteOptions& options() const { return options_; }

 private:
  TraceWriteOptions options_;
};

}  // namespace ddr

#endif  // SRC_TRACE_TRACE_WRITER_H_
