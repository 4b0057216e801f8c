// Event-chunk payload encoding.
//
// A chunk payload is `first_event varint | count varint` followed by the
// columnar body every event chunk uses (section filter kVarintDelta): one
// array per field across the whole chunk, with monotone fields (seq,
// time) stored as a first absolute value followed by zigzag deltas.
// Consecutive events share types/fibers/regions, so the transposed arrays
// are run-heavy and the delta'd counters tiny — exactly the shape the
// ddrz LZ pass exploits (a row-per-event layout only gave it ~1.1x).
//
// DecodeEventChunkPayload validates the embedded (first, count) against
// the footer's chunk table entry and refuses any other filter.

#ifndef SRC_TRACE_CHUNK_CODEC_H_
#define SRC_TRACE_CHUNK_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/event.h"
#include "src/trace/trace_format.h"
#include "src/util/status.h"

namespace ddr {

// Encodes `count` events starting at `events` into a chunk payload whose
// index header says they cover [first_event, first_event + count).
std::vector<uint8_t> EncodeEventChunkPayload(const Event* events,
                                             uint64_t count,
                                             uint64_t first_event);

// Which columnar decode implementation handles a chunk. Both
// produce bit-identical Event vectors from the same payload; kBatched is
// the hot path every reader uses (bounds check hoisted to "a worst-case
// varint fits", single-byte fast case, columns written straight into the
// preallocated vector), kScalar the original per-field loop that tests
// and the codec bench assert it against.
enum class ColumnarDecodePath { kBatched, kScalar };

// Decodes a chunk payload whose section framing carried `filter`,
// checking that its header matches the expected (first_event, count) from
// the footer chunk table. Any filter but kVarintDelta is InvalidArgument.
// The payload span may alias an mmap'd file region: decoding reads it in
// place, and the output vector is sized from the chunk's event count up
// front. Uses the batched path.
Result<std::vector<Event>> DecodeEventChunkPayload(
    std::span<const uint8_t> payload, TraceFilter filter,
    uint64_t expected_first, uint64_t expected_count);

// Same, with an explicit columnar path. Tests use this to assert the
// batched and scalar decoders agree event-for-event on good payloads and
// both fail with a Status (never a crash) on corrupt ones.
Result<std::vector<Event>> DecodeEventChunkPayloadWithPath(
    std::span<const uint8_t> payload, TraceFilter filter,
    uint64_t expected_first, uint64_t expected_count,
    ColumnarDecodePath path);

}  // namespace ddr

#endif  // SRC_TRACE_CHUNK_CODEC_H_
