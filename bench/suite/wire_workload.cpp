// wire-easycc: one referee and two players over TCP loopback, in a closed
// loop.  Unit t is trial t, seeded derive_seed(seed, t): the referee
// lets the players start trial t, then runs Scenario::serve_trial on a
// RefereeService while each player thread runs play_trial on its half of
// the vertices.  It is the only workload that goes through service/,
// wire/ and evloop/: 4096 small frames per trial, no pool, no AGM sketch.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "scenario/builtin.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "util/rng.h"
#include "wire/tcp.h"

namespace ds::bench {

namespace {

using Output = model::MatchingOutput;

constexpr std::size_t kBudgetBits = 1024;
constexpr std::size_t kPlayers = 2;
constexpr std::chrono::milliseconds kTimeout{5000};
// Trials whose referee hash is also checked against Scenario::run_trial.
constexpr std::uint64_t kSimChecked = 32;

/// Mean of an obs histogram, in ms, from microsecond samples.
double obs_mean_ms(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::HistogramView& h : snap.histograms) {
    if (h.name == name && h.count > 0) {
      return static_cast<double>(h.sum) / static_cast<double>(h.count) / 1e3;
    }
  }
  return 0.0;
}

class WireWorkload final : public Workload {
 public:
  explicit WireWorkload(const Context& ctx) : ctx_(ctx) {}
  ~WireWorkload() override { finish(); }
  WireWorkload(const WireWorkload&) = delete;
  WireWorkload& operator=(const WireWorkload&) = delete;

  void setup() override {
    finish();
    allowed_ = 0;
    stop_ = false;
    const graph::Vertex clusters = ctx_.opt.smoke ? 16 : 256;
    scenario_ = std::make_unique<scenario::EasyCcScenario>(clusters, 16, 0.9);
    players_ = std::vector<Player>(kPlayers);
    wire::TcpListener listener;
    for (std::size_t i = 0; i < kPlayers; ++i) {
      players_[i].owned =
          service::shard_vertices(scenario_->num_vertices(), kPlayers, i);
      players_[i].thread = std::thread(
          [this, i, port = listener.port()] { play(players_[i], port); });
    }
    std::vector<std::unique_ptr<wire::Link>> links;
    for (std::size_t i = 0; i < kPlayers; ++i) {
      links.push_back(listener.accept(kTimeout));
      if (!links.back()) throw std::runtime_error("a player never connected");
    }
    referee_ = std::make_unique<service::RefereeService>(std::move(links),
                                                         0, kTimeout);
    run_unit(0);
  }

  void run_unit(std::uint64_t index) override {
    if (index > 0) ++attempted_;
    if (broken_) {
      ++failed_;
      return;
    }
    Tracer* tracer = ctx_.tracer_for(index);
    const std::uint64_t trial_seed = util::derive_seed(ctx_.opt.seed, index);
    const std::uint64_t t0 = steady_ns();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      allowed_ = index + 1;
    }
    go_.notify_all();
    std::uint64_t hash = 0;
    try {
      hash = ctx_.opt.trace
                 ? composed_serve(trial_seed, tracer)
                 : scenario_->serve_trial(*referee_, kBudgetBits, trial_seed)
                       .output_hash;
    } catch (const std::exception& e) {
      if (index == 0) throw;
      // The links are in an unknown state: fail this and later trials.
      broken_ = true;
      ++failed_;
      error_ = e.what();
      return;
    }
    const double ms = ms_since(t0);
    if (index == 0) return;
    trial_ms_.push_back(ms);
    referee_hashes_.push_back(hash);
    if (tracer != nullptr) ++traced_trials_;
  }

  /// Stop the players after the last trial served, then compare every
  /// served trial's hashes.
  void finish() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    go_.notify_all();
    referee_.reset();
    for (Player& p : players_) {
      if (p.thread.joinable()) p.thread.join();
    }
    mismatches_ = 0;
    for (std::size_t t = 0; t < referee_hashes_.size(); ++t) {
      for (const Player& p : players_) {
        if (t + 1 >= p.hashes.size() || p.hashes[t + 1] != referee_hashes_[t]) {
          ++mismatches_;
          break;
        }
      }
    }
  }

  void check(std::vector<std::string>& misses) override {
    if (referee_hashes_.empty()) misses.push_back("no trial was served");
    if (!error_.empty()) misses.push_back("referee: " + error_);
    if (mismatches_ > 0) {
      misses.push_back(std::to_string(mismatches_) +
                       " trial(s) where a player's output hash differs");
    }
    const std::uint64_t sim =
        std::min<std::uint64_t>(kSimChecked, referee_hashes_.size());
    for (std::uint64_t t = 1; t <= sim; ++t) {
      const scenario::TrialOutcome twin = scenario_->run_trial(
          kBudgetBits, util::derive_seed(ctx_.opt.seed, t), &ctx_.pool,
          /*arena=*/nullptr);
      if (twin.output_hash != referee_hashes_[t - 1]) {
        misses.push_back("trial " + std::to_string(t) +
                         ": wire hash differs from run_trial");
      }
    }
  }

  [[nodiscard]] Tally tally() const override {
    return {attempted_, failed_ + mismatches_};
  }

  [[nodiscard]] std::vector<Metric> end_to_end(
      double loop_seconds) const override {
    return {{"latency_ms_p50", percentile(trial_ms_, 50), "ms"},
            {"latency_ms_tail", percentile(trial_ms_, 99), "ms"},
            {"throughput_per_s",
             static_cast<double>(trial_ms_.size()) / loop_seconds, "1/s"}};
  }

  [[nodiscard]] std::vector<Metric> per_layer(
      const TraceSummary& trace) const override {
    const SpanTotals send = trace.get("service.send");
    const double decode_ms =
        obs_mean_ms(obs::snapshot(), "service.decode_us");
    const double sketch_bytes = static_cast<double>(uplink_.payload_bits) /
                                8.0 / static_cast<double>(traced_trials_);
    const double players_encoded =
        static_cast<double>(send.count) *
        static_cast<double>(scenario_->num_vertices()) /
        static_cast<double>(kPlayers);
    return {{"input_ms", trace.get("scenario.sample").mean_ms(), "ms"},
            {"encode_ms", send.mean_ms(), "ms"},
            {"encode_items_per_s", players_encoded / (send.total_ms / 1e3),
             "1/s"},
            {"decode_ms", decode_ms, "ms"},
            {"decode_mb_per_s", sketch_bytes / kMB / (decode_ms / 1e3),
             "MB/s"},
            {"sketch_bytes", sketch_bytes, "bytes"}};
  }

  [[nodiscard]] std::vector<Metric> detail() const override {
    const obs::Snapshot snap = obs::snapshot();
    const auto trials = static_cast<double>(traced_trials_);
    const auto wire_bits = static_cast<double>(uplink_.wire_bits());
    return {
        {"wire.bytes_per_trial", wire_bits / 8.0 / trials, "bytes"},
        {"wire.frames_per_trial", static_cast<double>(uplink_.frames) / trials,
         "count"},
        {"wire.framing_frac",
         static_cast<double>(uplink_.framing_bits) / wire_bits, "frac"},
        {"service.rejected_frames",
         static_cast<double>(uplink_.rejected_frames), "count"},
        {"service.collect_ms", obs_mean_ms(snap, "service.collect_us"), "ms"},
        {"service.reply_ms", obs_mean_ms(snap, "service.reply_us"), "ms"}};
  }

 private:
  struct Player {
    std::vector<graph::Vertex> owned;
    std::vector<std::uint64_t> hashes;  // by trial index, from 0
    std::thread thread;
  };

  /// A player's closed loop: each trial the referee allows, until stop.
  void play(Player& player, std::uint16_t port) {
    try {
      const std::unique_ptr<wire::Link> link =
          wire::tcp_connect("127.0.0.1", port, kTimeout);
      for (std::uint64_t t = 0;; ++t) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          go_.wait(lock, [&] { return stop_ || t < allowed_; });
          if (t >= allowed_) return;
        }
        const std::uint64_t trial_seed = util::derive_seed(ctx_.opt.seed, t);
        player.hashes.push_back(
            ctx_.opt.trace
                ? composed_play(*link, player.owned, trial_seed,
                                ctx_.tracer_for(t))
                : scenario_->play_trial(*link, player.owned, kBudgetBits,
                                        trial_seed, kTimeout));
      }
    } catch (const std::exception&) {
      // A dead link or a timeout; finish() finds the trials it missed.
    }
  }

  /// serve_trial with each layer called separately.
  std::uint64_t composed_serve(std::uint64_t trial_seed, Tracer* tracer) {
    const Span root(tracer, "trial", 0, trial_seed);
    scenario::Instance inst;
    {
      const Span span(tracer, "scenario.sample");
      inst = scenario_->sample(trial_seed);
    }
    std::unique_ptr<model::SketchingProtocol<Output>> protocol;
    {
      const Span span(tracer, "scenario.make_protocol");
      protocol = scenario_->make_protocol(kBudgetBits);
    }
    service::ServeResult<Output> run;
    {
      const Span span(tracer, "service.serve");
      run = service::serve_protocol(referee_->links(), *protocol,
                                    inst.g.num_vertices(),
                                    scenario::trial_coins(trial_seed),
                                    referee_->timeout());
    }
    {
      const Span span(tracer, "scenario.judge");
      (void)scenario_->judge(inst, run.output);
    }
    if (tracer != nullptr) uplink_.merge(run.uplink);
    const Span span(tracer, "scenario.hash_output");
    return scenario::hash_output(run.output);
  }

  /// play_trial with each layer called separately.
  std::uint64_t composed_play(wire::Link& link,
                              std::span<const graph::Vertex> owned,
                              std::uint64_t trial_seed, Tracer* tracer) {
    const Span root(tracer, "player.trial", 0, trial_seed);
    scenario::Instance inst;
    {
      const Span span(tracer, "scenario.player_sample");
      inst = scenario_->sample(trial_seed);
    }
    std::unique_ptr<model::SketchingProtocol<Output>> protocol;
    {
      const Span span(tracer, "scenario.make_protocol");
      protocol = scenario_->make_protocol(kBudgetBits);
    }
    const model::PublicCoins coins = scenario::trial_coins(trial_seed);
    {
      const Span span(tracer, "service.send");
      (void)service::send_sketches(link, inst.g, owned, *protocol, coins);
    }
    Output output;
    {
      const Span span(tracer, "service.await");
      output = service::await_result(link, *protocol, kTimeout);
    }
    const Span span(tracer, "scenario.hash_output");
    return scenario::hash_output(output);
  }

  Context ctx_;
  std::mutex mutex_;
  std::condition_variable go_;
  std::uint64_t allowed_ = 0;  // players may start trials below this
  bool stop_ = false;
  std::unique_ptr<scenario::EasyCcScenario> scenario_;
  std::unique_ptr<service::RefereeService> referee_;
  std::vector<Player> players_;
  std::vector<double> trial_ms_;
  std::vector<std::uint64_t> referee_hashes_;  // trial t at index t - 1
  service::WireStats uplink_;                  // traced trials only
  std::uint64_t traced_trials_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
  bool broken_ = false;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_wire_easycc(const Context& ctx) {
  return std::make_unique<WireWorkload>(ctx);
}

}  // namespace ds::bench
