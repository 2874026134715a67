// The engine's Instrumentation seam.
//
// An Instrumentation policy is a small value the engine calls at fixed
// points of the collect/charge/broadcast/decode loop:
//
//   collect_span()            — entered around one round's sketch
//                               collection (RAII; return a no-op token to
//                               opt out);
//   decode_span()             — entered around the referee's decode;
//   on_sketch_bits(bits)      — once per charged sketch, from the single
//                               ChargeSheet site;
//   on_round(round, rounds, comm)
//                             — once per completed round of a
//                               `rounds`-round run, with that round's
//                               CommStats;
//   on_broadcast(round, b)    — once per referee broadcast (runs with
//                               num_rounds() > 1 only, i.e. never for
//                               R = 1).
//
// Policies shipped here:
//   * PlainInstrumentation — no-ops; the zero-overhead default.
//   * ObsInstrumentation   — the model-runner policy.  This file's .cpp is
//     the ONE owner of the model.* obs series registration (the seed tree
//     registered model.encode.* from two runner headers — the
//     duplication the engine removed).
//
// The audit-certifying policy lives in audit/audited_runner.h and the
// service policy in service/referee_service.h: the seam is the contract,
// not this file's inventory.
#pragma once

#include <cstddef>

#include "model/protocol.h"
#include "obs/obs.h"
#include "util/bitio.h"

namespace ds::engine {

namespace metrics {
// Accessors for the model-layer series (docs/OBSERVABILITY.md).  Defined
// in instrumentation.cpp — the single registration owner.  The
// model.encode.sketch_bits histogram mirrors CommStats exactly: count ==
// players encoded, sum == total_bits, max == max_bits (cross-checked by
// tests/audit/obs_audit_test.cpp for one-round AND multi-round runs,
// which share this code path).
[[nodiscard]] obs::Counter& encode_sketches();
[[nodiscard]] obs::Histogram& encode_sketch_bits();
[[nodiscard]] obs::Histogram& collect_us();
[[nodiscard]] obs::Histogram& decode_us();
[[nodiscard]] obs::Counter& adaptive_rounds();
[[nodiscard]] obs::Histogram& adaptive_broadcast_bits();
}  // namespace metrics

/// No-op policy: the engine core with zero instrumentation.
struct PlainInstrumentation {
  struct NoSpan {};
  [[nodiscard]] NoSpan collect_span() const noexcept { return {}; }
  [[nodiscard]] NoSpan decode_span() const noexcept { return {}; }
  void on_sketch_bits(std::size_t) const noexcept {}
  void on_round(unsigned, unsigned,
                const model::CommStats&) const noexcept {}
  void on_broadcast(unsigned, const util::BitString&) const noexcept {}
};

/// The model-runner policy: encode counters, collect/decode spans, and —
/// for runs with num_rounds() > 1 — the model.adaptive.* round counter
/// and broadcast-size histogram.  All updates are relaxed atomics outside
/// the deterministic reduction path, so results stay bit-identical with
/// metrics on or off.
struct ObsInstrumentation {
  [[nodiscard]] obs::ScopedSpan collect_span() const {
    return obs::ScopedSpan("model.collect", &metrics::collect_us());
  }
  [[nodiscard]] obs::ScopedSpan decode_span() const {
    return obs::ScopedSpan("model.decode", &metrics::decode_us());
  }
  void on_sketch_bits(std::size_t bits) const {
    metrics::encode_sketches().increment();
    metrics::encode_sketch_bits().record(bits);
  }
  void on_round(unsigned, unsigned rounds, const model::CommStats&) const {
    if (rounds > 1) metrics::adaptive_rounds().increment();
  }
  void on_broadcast(unsigned, const util::BitString& broadcast) const {
    metrics::adaptive_broadcast_bits().record(broadcast.bit_count());
  }
};

}  // namespace ds::engine
