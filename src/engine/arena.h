// Pooled word storage for the engine's hot encode loop.
//
// The seed-era runners allocated one heap BitString per vertex per trial:
// a fresh BitWriter grows its word vector from empty, and the copy into
// the BitString allocates again.  The arena keeps one reusable buffer per
// (round, vertex) slot: the encode loop adopts the slot's storage into a
// BitWriter (capacity preserved, contents cleared), writes the sketch,
// and moves the words into the BitString without copying; `reclaim` moves
// them back after the referee is done.  From the second trial on, the
// steady state performs zero per-vertex heap allocations — counted by
// tests/engine/arena_alloc_test.cpp.
//
// Thread-safety contract: `prepare` and `reclaim*` are called serially by
// the engine between parallel regions; `take`/`put` may be called
// concurrently only on distinct slots (the deterministic thread pool's
// fixed chunking guarantees each vertex is touched by exactly one
// worker).  An arena must not be shared between concurrently running
// engines — sweeps that parallelize over trials pass nullptr (or one
// arena per lane) instead.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/bitio.h"

namespace ds::engine {

class SketchArena {
 public:
  /// Ensure slots [0, slots) exist.  Serial; called between rounds.
  void prepare(std::size_t slots) {
    if (slots_.size() < slots) slots_.resize(slots);
  }

  [[nodiscard]] std::size_t num_slots() const noexcept {
    return slots_.size();
  }

  /// Adopt slot `slot`'s pooled storage (empty vector on the first use).
  /// Safe to call concurrently on distinct slots.
  [[nodiscard]] std::vector<std::uint64_t> take(std::size_t slot) noexcept {
    return std::move(slots_[slot]);
  }

  /// Return storage to slot `slot` for the next trial.
  void put(std::size_t slot, std::vector<std::uint64_t>&& storage) noexcept {
    if (slot < slots_.size()) slots_[slot] = std::move(storage);
  }

  /// Recycle one collected round, keyed from `base_slot`.  The BitStrings
  /// are consumed: their word storage moves back into the pool.
  void reclaim_round(std::vector<util::BitString>&& round,
                     std::size_t base_slot) {
    prepare(base_slot + round.size());
    for (std::size_t i = 0; i < round.size(); ++i) {
      put(base_slot + i, round[i].release_words());
    }
  }

  /// Recycle every round of a finished run (round r, vertex v lives in
  /// slot r * n + v — the same keying the engine's local source uses).
  void reclaim_rounds(std::vector<std::vector<util::BitString>>&& rounds) {
    std::size_t base = 0;
    for (std::vector<util::BitString>& round : rounds) {
      const std::size_t n = round.size();
      reclaim_round(std::move(round), base);
      base += n;
    }
  }

 private:
  std::vector<std::vector<std::uint64_t>> slots_;
};

/// A free list of arenas for trial-parallel sweeps: each concurrently
/// running trial leases its own arena (an arena is never shared between
/// live engines), and returned arenas are recycled, so the pool size is
/// bounded by the peak concurrency and steady-state trials reuse warm
/// buffers.  Which arena a given trial draws is schedule-dependent and
/// deliberately immaterial: arena identity never affects results (the
/// engine-equivalence suite pins arena'd == arena-less bits), only
/// allocation counts — which tests/engine/arena_alloc_test.cpp counts.
class ArenaReservoir {
 public:
  [[nodiscard]] std::unique_ptr<SketchArena> acquire() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<SketchArena> arena = std::move(free_.back());
        free_.pop_back();
        return arena;
      }
    }
    return std::make_unique<SketchArena>();
  }

  void release(std::unique_ptr<SketchArena> arena) {
    if (arena == nullptr) return;
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(arena));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SketchArena>> free_;
};

/// RAII lease: acquire on construction, return on destruction.
class ArenaLease {
 public:
  explicit ArenaLease(ArenaReservoir& reservoir)
      : reservoir_(reservoir), arena_(reservoir.acquire()) {}
  ~ArenaLease() { reservoir_.release(std::move(arena_)); }

  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  [[nodiscard]] SketchArena* get() const noexcept { return arena_.get(); }

 private:
  ArenaReservoir& reservoir_;
  std::unique_ptr<SketchArena> arena_;
};

}  // namespace ds::engine
