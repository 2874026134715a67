// The sketching model across a real message boundary: the same AGM
// spanning-forest protocol the simulator runs, but every sketch now
// travels as a self-delimiting wire frame through a loopback socket to a
// referee service, and the result comes back as a broadcast frame.
//
// Both runs below are the SAME round engine (docs/ENGINE.md): the
// simulator runs it with an in-process LocalSource, the RefereeService
// with a ShardedWireSource over its event loop's loopback sockets.  The point of the demo is
// the accounting split.  The model charges exactly BitWriter::bit_count()
// per player — from the engine's single ChargeSheet site in either
// configuration — and the wire adds framing (header varints,
// byte-rounding padding, CRC-32) on top.  The two are reported side by
// side and the payload column must equal the simulated CommStats bit for
// bit — the invariant tests/audit/wire_audit_test.cpp enforces for the
// whole protocol zoo.
#include <iostream>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/spanning_forest.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "wire/loopback.h"

int main() {
  using namespace ds;

  util::Rng rng(7);
  const graph::Graph g = graph::gnp(120, 0.08, rng);
  const model::PublicCoins coins(99);
  const protocols::AgmSpanningForest protocol;

  std::cout << "Instance: G(120, 0.08), " << g.num_edges() << " edges; "
            << "protocol \"" << protocol.name() << "\" over a loopback "
            << "wire session with 4 player clients\n\n";

  // The reference run: the in-process simulator.
  const auto simulated = model::run_protocol(g, protocol, coins);

  // The wire run: 4 clients, each owning a contiguous vertex shard,
  // batch their frames over a loopback link to the referee service.
  constexpr std::size_t kPlayers = 4;
  std::vector<std::unique_ptr<wire::Link>> referee_links;
  std::vector<std::unique_ptr<wire::Link>> player_links;
  for (std::size_t i = 0; i < kPlayers; ++i) {
    wire::LoopbackPair pair = wire::make_loopback_pair();
    referee_links.push_back(std::move(pair.referee_side));
    player_links.push_back(std::move(pair.player_side));
  }
  for (std::size_t i = 0; i < kPlayers; ++i) {
    const std::vector<graph::Vertex> owned =
        service::shard_vertices(g.num_vertices(), kPlayers, i);
    const service::PlayerSendStats sent = service::send_sketches(
        *player_links[i], g, owned, protocol, coins);
    std::cout << "  client " << i << ": " << sent.frames
              << " frames, payload " << sent.payload_bits
              << " bits + framing " << sent.framing_bits << " bits\n";
  }

  // The engine's wire configuration: the RefereeService adapter runs the
  // same collect/charge/decode core as model::run_protocol above, fed by
  // frames from its event loop instead of an in-process LocalSource.  The
  // referee ends of the loopback pairs move into that loop.
  service::RefereeService referee(std::move(referee_links), 99);
  const service::ServeResult<model::ForestOutput> served =
      referee.run(protocol, g.num_vertices());
  // Every client decodes the broadcast result.
  bool all_agree = true;
  for (const std::unique_ptr<wire::Link>& link : player_links) {
    all_agree &= service::await_result(*link, protocol) == served.output;
  }

  std::cout << "\nReferee decoded a forest of " << served.output.size()
            << " edges (valid: "
            << (graph::is_spanning_forest(g, served.output) ? "yes" : "no")
            << "); all clients agree: " << (all_agree ? "yes" : "no")
            << "\n\n";

  std::cout << "Accounting, wire vs simulation:\n"
            << "  uplink payload   : " << served.uplink.payload_bits
            << " bits  (simulated CommStats total: "
            << simulated.comm.total_bits << ")\n"
            << "  uplink framing   : " << served.uplink.framing_bits
            << " bits  (" << served.uplink.frames << " frames in "
            << served.uplink.messages << " messages)\n"
            << "  max player       : " << served.comm.max_bits
            << " bits  (simulated: " << simulated.comm.max_bits << ")\n"
            << "  result downlink  : " << served.downlink.payload_bits
            << " payload + " << served.downlink.framing_bits
            << " framing bits\n";

  const bool payload_matches =
      served.uplink.payload_bits == simulated.comm.total_bits &&
      served.comm.max_bits == simulated.comm.max_bits &&
      served.output == simulated.output;
  std::cout << "\nwire == sim: " << (payload_matches ? "yes" : "NO") << "\n";
  return payload_matches && all_agree ? 0 : 1;
}
