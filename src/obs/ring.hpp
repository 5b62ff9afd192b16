// Per-core event ring: the trace channel's hot-path buffer.
//
// The engine used to append a 16-byte TraceEvent to a std::vector on every
// recorded event — two of them per scheduler switch, which under contention
// means two per instrumented access. This ring replaces that with a compact
// append into a fixed inline buffer:
//
//   flags byte   = event code | 0x80 if the two arg bytes follow
//   varint       = clock delta since the previous event on this core
//                  (LEB128, 7 bits per byte; per-core clocks are monotonic,
//                  so the delta is small — a switch-heavy stream encodes in
//                  ~3 bytes/event instead of 16)
//   arg_a, arg_b = only when the flags bit is set (most events carry none)
//
// Event codes fit in 7 bits (obs::EventCode::kCount < 0x80; static-asserted
// below), which is what frees the top bit of the flags byte. The core id is
// not encoded: rings are per-core by construction and decode() stamps it
// back in.
//
// The inline buffer spills into a growable byte vector when full (flush()
// moves the buffered tail there). Where the tail sits never changes the
// stream, so nothing flushes at transaction boundaries or fiber switches:
// each ring is written by one core only, and decode() reads the spill then
// the inline tail, so a ring may hold events across fiber switches (per-core
// streams stay contiguous and clock-ordered; see Simulation::trace_events
// for the cross-core merge). The delta encoding survives even a
// non-monotonic clock (deltas are mod-2^64 and decode re-accumulates), it
// just costs a long varint.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/event.hpp"

namespace euno::obs {

static_assert(static_cast<int>(EventCode::kCount) < 0x80,
              "event codes must fit in 7 bits (flags bit 0x80 marks args)");

class EventRing {
 public:
  /// Append one event. `clock` is the recording core's simulated clock.
  void append(std::uint64_t clock, std::uint8_t code, std::uint8_t a,
              std::uint8_t b) {
    if (size_ + kMaxEncodedBytes > kInlineBytes) flush();
    std::uint8_t* p = buf_ + size_;
    const bool args = (a | b) != 0;
    *p++ = static_cast<std::uint8_t>(code | (args ? 0x80u : 0u));
    std::uint64_t d = clock - last_clock_;  // mod 2^64; see header comment
    last_clock_ = clock;
    while (d >= 0x80) {
      *p++ = static_cast<std::uint8_t>(d) | 0x80u;
      d >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(d);
    if (args) {
      *p++ = a;
      *p++ = b;
    }
    size_ = static_cast<std::size_t>(p - buf_);
    ++count_;
  }

  /// Move the inline buffer's tail into the spill vector. Cheap when empty;
  /// called by append() when the inline buffer is full.
  void flush() {
    if (size_ == 0) return;
    spill_.insert(spill_.end(), buf_, buf_ + size_);
    size_ = 0;
  }

  /// Decode the whole stream (spill + unflushed inline tail) back into
  /// TraceEvents, appending to `out` with `core` stamped into each event.
  /// Events come back in recording order with their original clocks.
  void decode(int core, std::vector<TraceEvent>* out) const {
    out->reserve(out->size() + count_);
    std::uint64_t clock = 0;
    const auto decode_range = [&](const std::uint8_t* p,
                                  const std::uint8_t* end) {
      while (p < end) {
        const std::uint8_t flags = *p++;
        std::uint64_t d = 0;
        int shift = 0;
        for (;;) {
          const std::uint8_t byte = *p++;
          d |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
          if ((byte & 0x80u) == 0) break;
          shift += 7;
        }
        clock += d;
        std::uint8_t a = 0, b = 0;
        if ((flags & 0x80u) != 0) {
          a = *p++;
          b = *p++;
        }
        out->push_back(TraceEvent{clock, static_cast<std::uint8_t>(core),
                                  static_cast<std::uint8_t>(flags & 0x7f), a,
                                  b});
      }
    };
    decode_range(spill_.data(), spill_.data() + spill_.size());
    decode_range(buf_, buf_ + size_);
  }

  std::size_t event_count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Encoded bytes currently held (spill + inline tail).
  std::size_t encoded_bytes() const { return spill_.size() + size_; }

  void clear() {
    spill_.clear();
    size_ = 0;
    count_ = 0;
    last_clock_ = 0;
  }

 private:
  static constexpr std::size_t kInlineBytes = 4096;
  // flags + 10-byte worst-case varint + 2 args.
  static constexpr std::size_t kMaxEncodedBytes = 13;

  std::vector<std::uint8_t> spill_;
  std::uint64_t last_clock_ = 0;
  std::size_t size_ = 0;   // used bytes of buf_
  std::size_t count_ = 0;  // events appended since clear()
  std::uint8_t buf_[kInlineBytes];
};

/// Decode every ring (ring index = core id) and merge into one stream
/// ordered by (clock, core) — equal clocks keep core order and each core's
/// events keep their recording order, reproducing the engine's historical
/// concat+stable_sort contract exactly. O(N log C) k-way merge.
std::vector<TraceEvent> merge_ring_events(const std::vector<EventRing>& rings);

/// The trace channel's result: the per-core encoded rings, moved out of the
/// engine when a run finishes. Experiments hand this back still encoded —
/// ~3 bytes/event instead of 16, and crucially no decode/merge work inside
/// the experiment's timed window (a traced contended run records ~2 events
/// per instrumented access; eagerly materializing TraceEvents used to cost
/// more than the whole instrumentation-free simulation). Consumers decode
/// on demand via merged().
class TraceStream {
 public:
  TraceStream() = default;
  explicit TraceStream(std::vector<EventRing> rings)
      : rings_(std::move(rings)) {}

  bool empty() const {
    for (const auto& r : rings_) {
      if (!r.empty()) return false;
    }
    return true;
  }
  std::size_t event_count() const {
    std::size_t n = 0;
    for (const auto& r : rings_) n += r.event_count();
    return n;
  }
  std::size_t encoded_bytes() const {
    std::size_t n = 0;
    for (const auto& r : rings_) n += r.encoded_bytes();
    return n;
  }
  /// Decode + merge into one clock-ordered TraceEvent vector (the eager
  /// form this type replaced). Linear in the event count; call it outside
  /// anything wall-clock sensitive.
  std::vector<TraceEvent> merged() const { return merge_ring_events(rings_); }

 private:
  std::vector<EventRing> rings_;
};

}  // namespace euno::obs
