// The referee's ingestion: k >= 1 RefereeShards, each owning an epoll
// event loop over its block of player connections, feeding one combiner.
//
// Sharding splits the referee's ingestion, not the model.  Each shard
// feeds the messages its connections deliver for the current round to
// its own RoundCollector (the one acceptance rule and reject taxonomy,
// service/session.h), and combine_shard_rounds folds the collectors, in
// shard order, into the one CollectedRound the engine decodes.  The
// engine charges sketches in vertex order, so every shard count produces
// bit-identical CommStats by construction (ShardedWireSource is the
// engine's wire SketchSource; engine/local_source.h is the in-process
// one).
//
// Vertex ownership is nominal: shard i of k nominally owns the
// contiguous range shard_range(n, k, i), and frames landing outside it
// are still accepted (players may connect to any shard; the layout is
// advisory) but counted in service.shard.out_of_range.  The one failure
// mode sharding adds is combiner divergence: the same vertex accepted by
// two different shards.  The combiner resolves it deterministically —
// the lowest shard index wins, the loser's frame is converted to a
// duplicate rejection — so the decode never depends on thread timing
// (docs/WIRE.md, failure-mode table).
//
// A round's end is coordinated through one RoundProgress: every shard
// adds the frames each message got accepted and drops each connection
// that closes, and every shard's poll loop exits once all n vertices are
// in or no connection is left on any shard, so no shard waits out the
// deadline after the round is complete elsewhere, or after every player
// is gone.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "evloop/event_loop.h"
#include "service/session.h"
#include "wire/frame.h"

namespace ds::service {

/// One round's progress, shared by every shard collecting it: the
/// vertices accepted so far and the connections still open, summed over
/// all shards.
struct RoundProgress {
  explicit RoundProgress(std::size_t open_connections) noexcept
      : open(open_connections) {}

  std::atomic<graph::Vertex> accepted{0};
  std::atomic<std::size_t> open;

  /// Every vertex is in, or no player is left who could send one.
  [[nodiscard]] bool over(graph::Vertex n) const noexcept {
    return accepted.load(std::memory_order_acquire) >= n ||
           open.load(std::memory_order_acquire) == 0;
  }
};

/// One referee shard: an event loop over this shard's connections and
/// the round collector it feeds.  Single-threaded: one thread at a time
/// drives it (the collecting thread, or its ShardedWireSource worker).
class RefereeShard {
 public:
  /// `index` of `parts` shards; the nominal vertex range is
  /// shard_range(n, parts, index), recomputed per round from the spec.
  RefereeShard(std::size_t index, std::size_t parts);
  RefereeShard(const RefereeShard&) = delete;
  RefereeShard& operator=(const RefereeShard&) = delete;

  /// Adopt a connected socket into this shard's event loop (ownership
  /// passes; see wire::EventLoop::add).  Returns the connection id.
  std::size_t adopt_fd(int fd);

  /// Register the round-completion wake fd (a semaphore eventfd shared
  /// by every sibling shard, owned by the ShardedWireSource): the shard
  /// accepting a round's final frame posts one unit per shard, ending
  /// every sibling's poll slice immediately instead of letting them
  /// sleep it out.  Without one, completion is still noticed — at
  /// kShardPollSlice granularity.
  void attach_wake(int fd);

  /// Forget the wake fd (the owner is about to close it; closing also
  /// deregisters it from the loop's epoll set).
  void detach_wake() noexcept { wake_fd_ = -1; }

  /// Drive the event loop until `progress` is over (every vertex accepted
  /// on some shard, or no connection open on any) or `deadline` passes,
  /// collecting this shard's frames.  Never throws on peer misbehaviour —
  /// bad frames are rejected and recorded, dead connections are dropped,
  /// and missing vertices are diagnosed when the combined round is
  /// finished, not here.
  [[nodiscard]] RoundCollector collect_round(
      const RoundSpec& spec,
      std::chrono::steady_clock::time_point deadline,
      RoundProgress& progress);

  /// Queue `message` on every live connection and flush until all
  /// backlogs reach the kernel or `deadline` passes.  Throws
  /// ServiceError if a connection dies or the deadline cuts the flush
  /// short.
  void broadcast(std::span<const std::uint8_t> message,
                 std::chrono::steady_clock::time_point deadline);

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t parts() const noexcept { return parts_; }
  [[nodiscard]] std::size_t open_connections() const noexcept;
  [[nodiscard]] std::size_t bytes_sent() const noexcept;
  [[nodiscard]] std::size_t bytes_received() const noexcept;

 private:
  std::size_t index_;
  std::size_t parts_;
  std::string conn_label_;  // "shard <index> conn", for reject details
  int wake_fd_ = -1;  // not owned; -1 until attach_wake
  wire::EventLoop loop_;
  std::vector<std::size_t> conns_;  // every id ever adopted
  // The round collect_round has open.
  RoundCollector open_;
  RoundProgress* progress_ = nullptr;
  wire::EventLoop::MessageFn on_message_;  // bound to open_, built once
  wire::EventLoop::CloseFn on_close_;
};

/// Fold per-shard collectors (shard s at index s, all of one spec) into
/// the one CollectedRound the engine decodes.  Cross-shard duplicates
/// resolve to the lowest shard index (deterministic: independent of
/// collection timing); the loser's copy becomes a kDuplicate reject,
/// exactly as one collector would have rejected it on arrival.  Throws
/// ServiceError, like every round close, if any vertex is missing.
[[nodiscard]] CollectedRound combine_shard_rounds(
    std::span<RoundCollector> rounds);

/// The referee's SketchSource: collect() runs the round on the calling
/// thread for one shard, or fans it out to one persistent worker thread
/// per shard (parked on a condition variable between rounds), and
/// combines; deliver_broadcast() pushes the inter-round frame down every
/// shard's connections.  Plugs into engine::run_rounds where LocalSource
/// does in the simulator.
class ShardedWireSource {
 public:
  /// With more than one shard this also creates the shared
  /// round-completion eventfd and attaches it to every shard's loop (see
  /// RefereeShard::attach_wake); if the eventfd cannot be created,
  /// collection silently falls back to poll-slice-granularity wakeups.
  ShardedWireSource(std::span<const std::unique_ptr<RefereeShard>> shards,
                    graph::Vertex n, std::uint32_t protocol_id,
                    std::chrono::milliseconds timeout) noexcept;
  ~ShardedWireSource();
  ShardedWireSource(const ShardedWireSource&) = delete;
  ShardedWireSource& operator=(const ShardedWireSource&) = delete;

  /// One engine round across all shards.  Throws ServiceError (from the
  /// combiner) if any vertex is missing at the deadline, or once every
  /// connection has closed without delivering it.
  [[nodiscard]] std::vector<util::BitString> collect(
      unsigned round, std::span<const util::BitString> /*broadcasts*/);

  /// Push the referee's inter-round broadcast to every connection of
  /// every shard.
  void deliver_broadcast(unsigned round, const util::BitString& b);

  /// Encode and broadcast an arbitrary referee frame (the kResult reply
  /// path shares this with deliver_broadcast).  Returns the per-frame
  /// stats, payload counted once per connection, merged into downlink().
  WireStats broadcast_frame(const wire::FrameHeader& header,
                            const util::BitString& payload);

  [[nodiscard]] std::uint32_t protocol_id() const noexcept {
    return protocol_id_;
  }
  [[nodiscard]] const WireStats& uplink() const noexcept { return uplink_; }
  [[nodiscard]] const WireStats& downlink() const noexcept {
    return downlink_;
  }

 private:
  /// One round's work order, shared with every parked worker.
  struct RoundTask {
    RoundSpec spec;
    std::chrono::steady_clock::time_point deadline;
    RoundProgress* progress = nullptr;
    std::vector<RoundCollector>* rounds = nullptr;
  };

  void ensure_workers();
  void collect_threaded(const RoundSpec& spec,
                        std::chrono::steady_clock::time_point deadline,
                        RoundProgress& progress,
                        std::vector<RoundCollector>& rounds);

  std::span<const std::unique_ptr<RefereeShard>> shards_;
  graph::Vertex n_;
  std::uint32_t protocol_id_;
  std::chrono::milliseconds timeout_;
  int wake_fd_ = -1;  // owned; shared with every shard's loop
  WireStats uplink_;
  WireStats downlink_;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable round_cv_;  // workers: a new generation posted
  std::condition_variable done_cv_;   // collect(): all shards reported in
  std::uint64_t generation_ = 0;
  std::size_t done_count_ = 0;
  RoundTask task_;
  bool stopping_ = false;
};

}  // namespace ds::service
