// Options shared by the buffered (TraceWriter) and streaming
// (StreamingTraceWriter) DDRT serializers. The encoding itself is not an
// option: event chunks are always varint-delta columnar
// (src/trace/chunk_codec.h), and every section but the footer is ddrz
// block-compressed when that shrinks it and stored raw otherwise.

#ifndef SRC_TRACE_TRACE_WRITER_OPTIONS_H_
#define SRC_TRACE_TRACE_WRITER_OPTIONS_H_

#include <cstdint>
#include <string>

namespace ddr {

struct TraceWriteOptions {
  // Events per chunk; the unit of partial decode. Small chunks seek finer,
  // large chunks compress better.
  uint64_t events_per_chunk = 512;
  // Emit a ReplayCheckpoint every N log events (0 = no checkpoints).
  uint64_t checkpoint_interval = 256;
  // Scenario name stamped into metadata so `ddr-trace replay` can rebuild
  // the program. Optional.
  std::string scenario;
  // Production-run wall time for post-reload efficiency scoring. Optional.
  double original_wall_seconds = 0.0;
};

}  // namespace ddr

#endif  // SRC_TRACE_TRACE_WRITER_OPTIONS_H_
