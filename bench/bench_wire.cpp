// W1: wire-session overhead — the same protocol run three ways (simulated
// in-process, loopback wire session, TCP wire session on 127.0.0.1) so
// the cost of crossing a real message boundary is a number, not a guess.
//
// Per case the driver records wall time and throughput (players/sec) for
// each mode, the payload/framing/transport byte split of the wire runs,
// and a "payload_matches_sim" flag certifying the accounting contract
// (wire payload bits == simulated CommStats, bit for bit).  Emits
// BENCH_wire.json (written by scripts/bench.sh next to
// BENCH_parallel.json) and exits nonzero if any run broke the contract.
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
#include "service/referee_service.h"
#include "wire/loopback.h"
#include "wire/tcp.h"

namespace {

using namespace std::chrono_literals;
using namespace ds;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct WireCaseRecord {
  std::string name;
  graph::Vertex n = 0;
  std::size_t clients = 0;
  double sim_ms = 0.0;
  double loopback_ms = 0.0;
  double tcp_ms = 0.0;
  double loopback_players_per_sec = 0.0;
  double tcp_players_per_sec = 0.0;
  std::size_t payload_bits = 0;    // == simulated CommStats total
  std::size_t framing_bits = 0;    // headers + padding + CRC (uplink)
  std::size_t transport_bytes = 0; // TCP bytes on the wire incl. prefixes
  bool payload_matches_sim = false;
};

/// One wire session over already-connected players, each on its own
/// thread against the referee.
template <typename Output>
service::ServeResult<Output> run_session(
    const service::RefereeService& referee,
    std::span<const std::unique_ptr<wire::Link>> player_links,
    const graph::Graph& g, const model::SketchingProtocol<Output>& protocol,
    const model::PublicCoins& coins) {
  std::vector<std::thread> clients;
  clients.reserve(player_links.size());
  for (std::size_t i = 0; i < player_links.size(); ++i) {
    clients.emplace_back([&, i] {
      (void)service::play_protocol(
          *player_links[i], g,
          service::shard_vertices(g.num_vertices(), player_links.size(), i),
          protocol, coins, 30000ms);
    });
  }
  service::ServeResult<Output> served = service::serve_protocol(
      referee.links(), protocol, g.num_vertices(), coins, referee.timeout());
  for (std::thread& t : clients) t.join();
  return served;
}

template <typename Output>
WireCaseRecord run_case(const std::string& name, graph::Vertex n, double p,
                        std::size_t clients,
                        const model::SketchingProtocol<Output>& protocol) {
  WireCaseRecord record;
  record.name = name;
  record.n = n;
  record.clients = clients;

  util::Rng rng(n);
  const graph::Graph g = graph::gnp(n, p, rng);
  const model::PublicCoins coins(2020);

  const auto sim_start = Clock::now();
  const auto simulated = model::run_protocol(g, protocol, coins);
  record.sim_ms = ms_since(sim_start);

  bool outputs_match = true;

  {  // Loopback session.
    std::vector<std::unique_ptr<wire::Link>> referee_links;
    std::vector<std::unique_ptr<wire::Link>> player_links;
    for (std::size_t i = 0; i < clients; ++i) {
      wire::LoopbackPair pair = wire::make_loopback_pair();
      referee_links.push_back(std::move(pair.referee_side));
      player_links.push_back(std::move(pair.player_side));
    }
    const service::RefereeService referee(std::move(referee_links), 0,
                                          30000ms);
    const auto start = Clock::now();
    const auto served = run_session(referee, player_links, g, protocol, coins);
    record.loopback_ms = ms_since(start);
    record.loopback_players_per_sec =
        record.loopback_ms > 0.0 ? n * 1000.0 / record.loopback_ms : 0.0;
    record.payload_bits = served.uplink.payload_bits;
    record.framing_bits = served.uplink.framing_bits;
    record.payload_matches_sim =
        served.uplink.payload_bits == simulated.comm.total_bits &&
        served.comm.max_bits == simulated.comm.max_bits;
    outputs_match &= served.output == simulated.output;
  }

  {  // TCP session on 127.0.0.1.
    wire::TcpListener listener;
    std::vector<std::unique_ptr<wire::Link>> player_links;
    std::thread connector([&] {
      for (std::size_t i = 0; i < clients; ++i) {
        player_links.push_back(
            wire::tcp_connect("127.0.0.1", listener.port(), 10000ms));
      }
    });
    service::RefereeService referee(1, 0, 30000ms);
    for (std::size_t i = 0; i < clients; ++i) {
      (void)referee.adopt_fd(listener.accept_fd(10000ms));
    }
    connector.join();

    const auto start = Clock::now();
    const auto served = run_session(referee, player_links, g, protocol, coins);
    record.tcp_ms = ms_since(start);
    record.tcp_players_per_sec =
        record.tcp_ms > 0.0 ? n * 1000.0 / record.tcp_ms : 0.0;
    for (const auto& shard : referee.links()) {
      record.transport_bytes += shard->bytes_received() + shard->bytes_sent();
    }
    record.payload_matches_sim =
        record.payload_matches_sim &&
        served.uplink.payload_bits == simulated.comm.total_bits;
    outputs_match &= served.output == simulated.output;
  }

  record.payload_matches_sim = record.payload_matches_sim && outputs_match;
  std::cout << "[" << record.name << "] n=" << record.n
            << " clients=" << record.clients << " sim=" << record.sim_ms
            << "ms loopback=" << record.loopback_ms
            << "ms tcp=" << record.tcp_ms << "ms payload="
            << record.payload_bits << "b framing=" << record.framing_bits
            << "b wire==sim="
            << (record.payload_matches_sim ? "yes" : "NO") << "\n";
  return record;
}

void write_json(const std::string& path,
                const std::vector<WireCaseRecord>& records) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WireCaseRecord& r = records[i];
    out << "    {\n"
        << "      \"name\": \"" << r.name << "\",\n"
        << "      \"n\": " << r.n << ",\n"
        << "      \"clients\": " << r.clients << ",\n"
        << "      \"sim_ms\": " << r.sim_ms << ",\n"
        << "      \"loopback_ms\": " << r.loopback_ms << ",\n"
        << "      \"tcp_ms\": " << r.tcp_ms << ",\n"
        << "      \"loopback_players_per_sec\": "
        << r.loopback_players_per_sec << ",\n"
        << "      \"tcp_players_per_sec\": " << r.tcp_players_per_sec
        << ",\n"
        << "      \"payload_bits\": " << r.payload_bits << ",\n"
        << "      \"framing_bits\": " << r.framing_bits << ",\n"
        << "      \"transport_bytes\": " << r.transport_bytes << ",\n"
        << "      \"payload_matches_sim\": "
        << (r.payload_matches_sim ? "true" : "false") << "\n    }"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"metrics\": ";
  ds::obs::write_json(out, ds::obs::snapshot(), "  ");
  out << "\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_wire.json";
  // Metrics on for the run: BENCH_wire.json's metrics block then carries
  // the wire/service counter totals next to the byte-split numbers.
  ds::obs::set_metrics_enabled(true);

  std::vector<WireCaseRecord> records;
  records.push_back(run_case("spanning_forest/n=128", 128, 0.10, 4,
                             ds::protocols::AgmSpanningForest{}));
  records.push_back(run_case("spanning_forest/n=512", 512, 0.03, 4,
                             ds::protocols::AgmSpanningForest{}));
  records.push_back(run_case("connectivity/n=256", 256, 0.05, 8,
                             ds::protocols::AgmConnectivity{}));

  write_json(out_path, records);

  for (const WireCaseRecord& r : records) {
    if (!r.payload_matches_sim) {
      std::cerr << "FAIL: " << r.name
                << " wire accounting diverged from simulation\n";
      return 1;
    }
  }
  return 0;
}
