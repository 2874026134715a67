#include "service/shard.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>

#include "obs/obs.h"

namespace ds::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Upper bound on one shard's epoll wait while a round is open: short
/// enough that a shard whose own connections are quiet notices the
/// shared RoundProgress ending (set by its siblings) promptly.  This is
/// the whole round's completion lag for a shard that finished early —
/// 1ms (the epoll_wait floor) keeps the multi-shard tail under a
/// millisecond without busy-spinning a core away from the siblings.
constexpr std::chrono::milliseconds kShardPollSlice{1};

/// Shard counters (docs/OBSERVABILITY.md).  Frames, payload and rejects
/// are counted once per combined round under service.*, by
/// RoundCollector::finish; what is counted here is per shard:
/// out_of_range (a frame landing on a shard that does not nominally own
/// its vertex — legal, but worth watching), cross_shard_duplicates (the
/// combiner-divergence failure mode in docs/WIRE.md), connections that
/// closed, and broadcast sends.
struct ShardMetrics {
  obs::Counter& out_of_range = obs::counter("service.shard.out_of_range");
  obs::Counter& cross_shard_duplicates =
      obs::counter("service.shard.cross_shard_duplicates");
  obs::Counter& dead_connections =
      obs::counter("service.shard.dead_connections");
  obs::Counter& broadcasts = obs::counter("service.shard.broadcasts");
  obs::Histogram& collect_us = obs::histogram("service.shard.collect_us");
};

ShardMetrics& metrics() {
  static ShardMetrics m;
  return m;
}

}  // namespace

RefereeShard::RefereeShard(std::size_t index, std::size_t parts)
    : index_(index),
      parts_(std::max<std::size_t>(parts, 1)),
      conn_label_("shard " + std::to_string(index) + " conn") {
  // Bound once so a poll pass costs no std::function churn.
  on_message_ = [this](std::size_t conn, std::vector<std::uint8_t> message) {
    const std::size_t taken =
        open_.offer_message(message, conn_label_, conn);
    if (taken == 0) return;
    const graph::Vertex n = open_.spec().n;
    const graph::Vertex before = progress_->accepted.fetch_add(
        static_cast<graph::Vertex>(taken), std::memory_order_acq_rel);
    if (before < n && before + taken >= n && wake_fd_ >= 0) {
      // Round complete: post one semaphore unit per shard so every
      // sibling's poll slice ends now, not at slice granularity.
      const std::uint64_t units = parts_;
      (void)!::write(wake_fd_, &units, sizeof(units));
    }
  };
  // A closed connection can deliver nothing more this round; once none is
  // left on any shard the round is over (siblings notice within a poll
  // slice).
  on_close_ = [this](std::size_t, wire::RecvStatus) {
    metrics().dead_connections.increment();
    progress_->open.fetch_sub(1, std::memory_order_acq_rel);
  };
}

std::size_t RefereeShard::adopt_fd(int fd) {
  const std::size_t id = loop_.add(fd);
  conns_.push_back(id);
  return id;
}

void RefereeShard::attach_wake(int fd) {
  loop_.add_wake_fd(fd);
  wake_fd_ = fd;
}

std::size_t RefereeShard::open_connections() const noexcept {
  return loop_.open_connections();
}
std::size_t RefereeShard::bytes_sent() const noexcept {
  return loop_.bytes_sent();
}
std::size_t RefereeShard::bytes_received() const noexcept {
  return loop_.bytes_received();
}

RoundCollector RefereeShard::collect_round(const RoundSpec& spec,
                                           Clock::time_point deadline,
                                           RoundProgress& progress) {
  open_ = RoundCollector(spec);
  progress_ = &progress;
  const obs::ScopedSpan span("service.shard.collect",
                             &metrics().collect_us);
  while (!progress.over(spec.n)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) break;
    // A shard with no open connection of its own cannot make progress,
    // but keeps polling (cheaply) while a sibling still can.
    (void)loop_.poll_once(
        std::clamp(left, std::chrono::milliseconds(1), kShardPollSlice),
        on_message_, on_close_);
  }
  progress_ = nullptr;
  return std::move(open_);
}

void RefereeShard::broadcast(std::span<const std::uint8_t> message,
                             Clock::time_point deadline) {
  for (const std::size_t id : conns_) {
    if (!loop_.is_open(id)) continue;
    if (!loop_.send(id, message)) {
      throw ServiceError("broadcast failed: a player connection is gone");
    }
    metrics().broadcasts.increment();
  }
  // Frames arriving mid-flush would belong to the next round; the next
  // collect_round's callbacks will see them, so drop none here but also
  // accept none (messages surfacing now are a protocol violation either
  // way — the per-round decode rejects them by round id later).
  const wire::EventLoop::MessageFn drop = [](std::size_t,
                                             std::vector<std::uint8_t>) {};
  const wire::EventLoop::CloseFn on_close = [](std::size_t,
                                               wire::RecvStatus) {
    metrics().dead_connections.increment();
  };
  if (!loop_.flush_all(deadline, drop, on_close)) {
    throw ServiceError("broadcast failed: write backlog missed the deadline");
  }
}

CollectedRound combine_shard_rounds(std::span<RoundCollector> rounds) {
  if (rounds.empty()) throw ServiceError("no referee shard to combine");
  const graph::Vertex n = rounds[0].spec().n;
  for (std::size_t s = 0; s < rounds.size(); ++s) {
    // Ownership is nominal: count what landed outside shard s's range.
    const auto [lo, hi] = shard_range(n, rounds.size(), s);
    std::size_t foreign = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      if ((v < lo || v >= hi) && rounds[s].has(v)) ++foreign;
    }
    metrics().out_of_range.add(foreign);
    if (s == 0) continue;
    metrics().cross_shard_duplicates.add(rounds[0].absorb(
        std::move(rounds[s]), "shard " + std::to_string(s)));
  }
  return std::move(rounds[0]).finish();
}

ShardedWireSource::ShardedWireSource(
    std::span<const std::unique_ptr<RefereeShard>> shards, graph::Vertex n,
    std::uint32_t protocol_id, std::chrono::milliseconds timeout) noexcept
    : shards_(shards), n_(n), protocol_id_(protocol_id), timeout_(timeout) {
  // The round-completion wake only matters when shards sleep in their
  // own threads, which one shard never does.
  if (shards_.size() < 2) return;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_SEMAPHORE | EFD_CLOEXEC);
  if (wake_fd_ < 0) return;  // poll-slice fallback still completes rounds
  for (const std::unique_ptr<RefereeShard>& shard : shards_) {
    shard->attach_wake(wake_fd_);
  }
}

ShardedWireSource::~ShardedWireSource() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    round_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  if (wake_fd_ < 0) return;
  for (const std::unique_ptr<RefereeShard>& shard : shards_) {
    shard->detach_wake();
  }
  // Closing the eventfd deregisters it from every shard's epoll set.
  ::close(wake_fd_);
}

void ShardedWireSource::ensure_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] {
      std::uint64_t seen = 0;
      for (;;) {
        RoundTask task;
        {
          std::unique_lock<std::mutex> lock(mu_);
          round_cv_.wait(
              lock, [&] { return stopping_ || generation_ != seen; });
          if (stopping_) return;
          seen = generation_;
          task = task_;
        }
        (*task.rounds)[s] = shards_[s]->collect_round(
            task.spec, task.deadline, *task.progress);
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++done_count_;
        }
        done_cv_.notify_all();
      }
    });
  }
}

void ShardedWireSource::collect_threaded(
    const RoundSpec& spec, Clock::time_point deadline,
    RoundProgress& progress, std::vector<RoundCollector>& rounds) {
  ensure_workers();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task_ = RoundTask{spec, deadline, &progress, &rounds};
    done_count_ = 0;
    ++generation_;
  }
  round_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_count_ == workers_.size(); });
}

std::vector<util::BitString> ShardedWireSource::collect(
    unsigned round, std::span<const util::BitString> /*broadcasts*/) {
  const RoundSpec spec{n_, protocol_id_, round};
  const Clock::time_point deadline = Clock::now() + timeout_;
  std::size_t open = 0;
  for (const std::unique_ptr<RefereeShard>& shard : shards_) {
    open += shard->open_connections();
  }
  RoundProgress progress(open);
  std::vector<RoundCollector> rounds(shards_.size());

  if (shards_.size() == 1) {
    rounds[0] = shards_[0]->collect_round(spec, deadline, progress);
  } else {
    collect_threaded(spec, deadline, progress, rounds);
  }

  CollectedRound combined = combine_shard_rounds(rounds);
  uplink_.merge(combined.wire);
  return std::move(combined.sketches);
}

void ShardedWireSource::deliver_broadcast(unsigned round,
                                          const util::BitString& b) {
  (void)broadcast_frame(
      {wire::FrameType::kBroadcast, protocol_id_, 0, round}, b);
}

WireStats ShardedWireSource::broadcast_frame(const wire::FrameHeader& header,
                                             const util::BitString& payload) {
  std::vector<std::uint8_t> bytes;
  const std::size_t framing = wire::encode_frame(header, payload, bytes);
  const Clock::time_point deadline = Clock::now() + timeout_;
  WireStats stats;
  for (const std::unique_ptr<RefereeShard>& shard : shards_) {
    const std::size_t conns = shard->open_connections();
    shard->broadcast(bytes, deadline);
    stats.frames += conns;
    stats.messages += conns;
    stats.payload_bits += payload.bit_count() * conns;
    stats.framing_bits += framing * conns;
  }
  downlink_.merge(stats);
  return stats;
}

}  // namespace ds::service
