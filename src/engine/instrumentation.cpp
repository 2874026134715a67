#include "engine/instrumentation.h"

// The single registration owner for the model-layer obs series.  Before
// the engine existed, the one-round and the multi-round runner headers
// each registered model.encode.* from their own header-inline statics;
// any third runner would have added a fourth copy.  Every accessor below
// is a function-local static bound to the immortal registry, so
// registration happens exactly once per process regardless of how many
// adapters link.

namespace ds::engine::metrics {

obs::Counter& encode_sketches() {
  static obs::Counter& c = obs::counter("model.encode.sketches");
  return c;
}

obs::Histogram& encode_sketch_bits() {
  static obs::Histogram& h = obs::histogram("model.encode.sketch_bits");
  return h;
}

obs::Histogram& collect_us() {
  static obs::Histogram& h = obs::histogram("model.collect_us");
  return h;
}

obs::Histogram& decode_us() {
  static obs::Histogram& h = obs::histogram("model.decode_us");
  return h;
}

obs::Counter& adaptive_rounds() {
  static obs::Counter& c = obs::counter("model.adaptive.rounds");
  return c;
}

obs::Histogram& adaptive_broadcast_bits() {
  static obs::Histogram& h = obs::histogram("model.adaptive.broadcast_bits");
  return h;
}

}  // namespace ds::engine::metrics
