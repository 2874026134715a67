// W2: referee throughput — how fast can the referee side absorb a round
// once clients pipeline their sketches as pre-encoded corked batches?
//
// Per case the bench measures the referee absorb rate at 1, 2 and 4
// shards: clients pre-encode their whole round batch OUTSIDE the clock,
// then the clock covers send -> collect -> combine only.  Each row's
// speedup_vs_baseline is its players/sec over the 1-shard row's, so it
// says what extra shards buy on the host at hand (docs/WIRE.md has the
// measured figures).
//
// Every row is certified against model::collect_sketches: the combined
// payloads must match the simulation BitString for BitString and the
// uplink payload bits must equal the simulated CommStats total.  Emits
// BENCH_shard.json and exits nonzero if any row broke that contract
// (speed never fails the run; broken accounting always does).
#include <sys/socket.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "model/runner.h"
#include "obs/obs.h"
#include "protocols/spanning_forest.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/shard.h"
#include "wire/tcp.h"

namespace {

using namespace std::chrono_literals;
using namespace ds;

using Clock = std::chrono::steady_clock;

// Every row rides the scheduler, so each keeps its fastest of kAbsorbReps.
constexpr int kAbsorbReps = 9;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ShardRow {
  std::string name;
  graph::Vertex n = 0;
  std::size_t clients = 0;
  std::size_t shards = 0;
  std::string mode;           // "absorb"
  double ms = 0.0;
  double players_per_sec = 0.0;
  double speedup_vs_baseline = 0.0;  // vs the same case's shards=1 row
  std::size_t payload_bits = 0;
  std::size_t framing_bits = 0;
  bool payload_matches_sim = false;
};

/// The per-client corked batch for round 0, encoded once outside the
/// clock so absorb rows measure the referee, not the sketch encoder.
template <typename Output>
std::vector<std::vector<std::uint8_t>> pre_encode_batches(
    const graph::Graph& g, const model::SketchingProtocol<Output>& protocol,
    const model::PublicCoins& coins, std::size_t clients) {
  const std::uint32_t proto = wire::protocol_id(protocol.name());
  std::vector<std::vector<std::uint8_t>> batches(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    for (const graph::Vertex v :
         service::shard_vertices(g.num_vertices(), clients, i)) {
      const model::VertexView view{g.num_vertices(), v, g.neighbors(v),
                                   &coins};
      util::BitWriter w;
      protocol.encode(view, w);
      (void)service::append_sketch_frame(batches[i], proto, v, 0,
                                         util::BitString(w));
    }
  }
  return batches;
}

bool same_payloads(std::span<const util::BitString> got,
                   std::span<const util::BitString> want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (got[v].bit_count() != want[v].bit_count()) return false;
    if (got[v].words() != want[v].words()) return false;
  }
  return true;
}

/// Writer threads shovel the pre-encoded batches while the referee-side
/// `collect` callback runs; returns wall ms for send -> collect.
template <typename Collect>
double timed_absorb(const std::vector<std::vector<std::uint8_t>>& batches,
                    std::span<const std::unique_ptr<wire::Link>> players,
                    Collect&& collect) {
  const auto start = Clock::now();
  std::vector<std::thread> writers;
  writers.reserve(players.size());
  for (std::size_t i = 0; i < players.size(); ++i) {
    writers.emplace_back([&, i] { (void)players[i]->send(batches[i]); });
  }
  collect();
  for (std::thread& t : writers) t.join();
  return ms_since(start);
}

template <typename Output>
void run_case(const std::string& name, graph::Vertex n, double p,
              std::size_t clients,
              const model::SketchingProtocol<Output>& protocol,
              std::vector<ShardRow>& rows) {
  util::Rng rng(n);
  const graph::Graph g = graph::gnp(n, p, rng);
  const model::PublicCoins coins(2020);
  const std::uint32_t proto = wire::protocol_id(protocol.name());

  model::CommStats sim_comm;
  const std::vector<util::BitString> sim_sketches =
      model::collect_sketches(g, protocol, coins, sim_comm);
  const std::vector<std::vector<std::uint8_t>> batches =
      pre_encode_batches(g, protocol, coins, clients);

  // Absorb at 1, 2 and 4 shards; the first row is the baseline.
  const std::size_t first = rows.size();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    ShardRow row;
    row.name = name + "/shards=" + std::to_string(shards);
    row.n = n;
    row.clients = clients;
    row.shards = shards;
    row.mode = "absorb";
    row.ms = 1e300;
    for (int rep = 0; rep < kAbsorbReps; ++rep) {
      std::vector<std::unique_ptr<service::RefereeShard>> shard_set;
      for (std::size_t s = 0; s < shards; ++s) {
        shard_set.push_back(
            std::make_unique<service::RefereeShard>(s, shards));
      }
      std::vector<std::unique_ptr<wire::Link>> player_links;
      for (std::size_t i = 0; i < clients; ++i) {
        int fds[2] = {-1, -1};
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) continue;
        (void)shard_set[i % shards]->adopt_fd(fds[0]);
        player_links.push_back(wire::tcp_adopt_fd(fds[1]));
      }
      service::ShardedWireSource source(shard_set, g.num_vertices(), proto,
                                        10000ms);
      std::vector<util::BitString> collected;
      const double ms = timed_absorb(
          batches, player_links, [&] { collected = source.collect(0, {}); });
      row.ms = std::min(row.ms, ms);
      row.payload_bits = source.uplink().payload_bits;
      row.framing_bits = source.uplink().framing_bits;
      row.payload_matches_sim =
          same_payloads(collected, sim_sketches) &&
          source.uplink().payload_bits == sim_comm.total_bits &&
          source.uplink().rejected_frames == 0;
    }
    row.players_per_sec = row.ms > 0.0 ? n * 1000.0 / row.ms : 0.0;
    row.speedup_vs_baseline =
        shards == 1 ? 1.0 : row.players_per_sec / rows[first].players_per_sec;
    rows.push_back(row);
  }

  for (std::size_t i = first; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    std::cout << "[" << r.name << "] n=" << r.n << " clients=" << r.clients
              << " " << r.mode << "=" << r.ms << "ms players/sec="
              << r.players_per_sec << " speedup=" << r.speedup_vs_baseline
              << "x wire==sim=" << (r.payload_matches_sim ? "yes" : "NO")
              << "\n";
  }
}

void write_json(const std::string& path, const std::vector<ShardRow>& rows) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    out << "    {\n"
        << "      \"name\": \"" << r.name << "\",\n"
        << "      \"n\": " << r.n << ",\n"
        << "      \"clients\": " << r.clients << ",\n"
        << "      \"shards\": " << r.shards << ",\n"
        << "      \"mode\": \"" << r.mode << "\",\n"
        << "      \"ms\": " << r.ms << ",\n"
        << "      \"players_per_sec\": " << r.players_per_sec << ",\n"
        << "      \"speedup_vs_baseline\": " << r.speedup_vs_baseline
        << ",\n"
        << "      \"payload_bits\": " << r.payload_bits << ",\n"
        << "      \"framing_bits\": " << r.framing_bits << ",\n"
        << "      \"payload_matches_sim\": "
        << (r.payload_matches_sim ? "true" : "false") << "\n    }"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"metrics\": ";
  ds::obs::write_json(out, ds::obs::snapshot(), "  ");
  out << "\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";
  ds::obs::set_metrics_enabled(true);

  // 8 clients per case: with 4 shards that is two connections per shard
  // loop, enough for a shard to drain one socket while its other
  // client's writer refills the first — one connection per shard would
  // instead measure single-core sleep/wake churn, not the referee.
  std::vector<ShardRow> rows;
  run_case("spanning_forest/n=128", 128, 0.10, 8,
           ds::protocols::AgmSpanningForest{}, rows);
  run_case("spanning_forest/n=512", 512, 0.03, 8,
           ds::protocols::AgmSpanningForest{}, rows);
  run_case("connectivity/n=256", 256, 0.05, 8,
           ds::protocols::AgmConnectivity{}, rows);

  write_json(out_path, rows);

  for (const ShardRow& r : rows) {
    if (!r.payload_matches_sim) {
      std::cerr << "FAIL: " << r.name
                << " sharded accounting diverged from simulation\n";
      return 1;
    }
  }
  return 0;
}
