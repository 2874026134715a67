// distsketch_service — the sketching model across real process
// boundaries, one binary with two subcommands:
//
//   distsketch_service serve  --players K [--port 0] [--shards S]
//                             [--protocol NAME] [--n N] [--coin-seed C]
//   distsketch_service player --index I --players K --port PORT
//                             [--host 127.0.0.1] [--protocol NAME]
//                             [--n N] [--p P] [--graph-seed S] [--coin-seed C]
//
// The referee listens, accepts K player connections into S epoll shards
// (default 1), collects all n sketches (players shard [0, n) contiguously
// by --index), runs the protocol's unmodified decode, and broadcasts the
// result back.  Players derive their shard of a shared G(n, p) instance
// from --graph-seed — a stand-in for each process loading its shard of a
// real dataset; the referee never sees the graph, only the frames.
//
// Protocols: spanning-forest (default; AGM, the O(log^3 n) upper bound),
// connectivity, two-round-matching (two rounds, exercises the referee's
// inter-round broadcast).
//
// Flags are checked (tools/flags.h): a value that is not all digits, or
// does not fit its field, exits 2 naming the flag, as does any flag the
// command does not read (`player --shards 2`, `serve --portt 5`).
//
// Scenario mode: `--scenario <id>` replaces the ad-hoc --protocol/--n/--p
// plumbing with a registered instance family (scenario::find).  Both
// sides sample the trial's instance deterministically from --trial-seed
// and key the public coins the same way, so the referee's outcome and
// every player's output hash match the simulated run bit for bit (the
// scenario-smoke contract).  `--list-scenarios` prints the registry.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "flags.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "protocols/spanning_forest.h"
#include "scenario/registry.h"
#include "protocols/two_round_matching.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "wire/tcp.h"

namespace {

struct Options {
  std::string command;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string protocol = "spanning-forest";
  ds::graph::Vertex n = 64;
  double p = 0.12;
  std::uint64_t graph_seed = 1;
  std::uint64_t coin_seed = 7;
  std::size_t players = 1;
  std::size_t index = 0;
  std::size_t shards = 1;  // referee epoll shards, at least 1
  std::string scenario;        // registered family id; empty = --protocol
  std::size_t budget = 0;      // 0 = the scenario grid's largest budget
  std::uint64_t trial_seed = 1;
  bool list_scenarios = false;
  bool protocol_set = false;
  std::chrono::milliseconds timeout{10000};
  std::string metrics_out;  // write obs snapshot JSON here on exit
  std::chrono::milliseconds metrics_interval{0};  // 0 = no periodic summary
};

/// Background stderr heartbeat: one obs::summary_line() per interval
/// while the session runs, so a stuck collect is visible live.
class MetricsReporter {
 public:
  explicit MetricsReporter(std::chrono::milliseconds interval) {
    if (interval.count() <= 0) return;
    thread_ = std::thread([this, interval] {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!cv_.wait_for(lk, interval, [this] { return stopping_; })) {
        std::cerr << "metrics: " << ds::obs::summary_line() << "\n";
      }
    });
  }

  ~MetricsReporter() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  MetricsReporter(const MetricsReporter&) = delete;
  MetricsReporter& operator=(const MetricsReporter&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

void write_metrics_snapshot(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "distsketch_service: cannot write metrics to " << path
              << "\n";
    return;
  }
  ds::obs::write_json(out, ds::obs::snapshot());
  out << "\n";
  std::cerr << "metrics: snapshot written to " << path << "\n";
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " serve|player [options]\n"
      << "  --host H           player: referee address (default 127.0.0.1)\n"
      << "  --port P           TCP port (serve default 0 = ephemeral)\n"
      << "  --protocol NAME    spanning-forest | connectivity |"
         " two-round-matching\n"
      << "  --n N --p P        shared G(n, p) instance (serve reads only"
         " --n)\n"
      << "  --graph-seed S     player: shared graph seed\n"
      << "  --coin-seed C      public coins seed\n"
      << "  --scenario ID      run a registered instance family instead of"
         " --protocol/--n/--p\n"
      << "  --budget B         scenario: per-player bit budget (default ="
         " the grid's largest)\n"
      << "  --trial-seed S     scenario: trial seed; both sides sample the"
         " instance from it\n"
      << "  --list-scenarios   print the scenario registry and exit\n"
      << "  --players K        number of player processes\n"
      << "  --index I          player: this process's shard index\n"
      << "  --shards S         serve: S >= 1 epoll referee shards (default"
         " 1)\n"
      << "  --timeout-ms T     round deadline (default 10000)\n"
      << "  --metrics-out F    enable metrics; write the obs JSON snapshot"
         " to F on exit\n"
      << "  --metrics-interval-ms T\n"
      << "                     enable metrics; print a summary line to"
         " stderr every T ms\n";
  std::exit(2);
}

/// The registry, one line per scenario, for --list-scenarios and the
/// did-you-mean rejection below.
void print_scenarios(std::ostream& out) {
  out << "registered scenarios:\n";
  for (const ds::scenario::Scenario* s : ds::scenario::all()) {
    out << "  " << s->id() << "  (n=" << s->num_vertices()
        << ", budgets " << s->default_grid().budgets.front() << ".."
        << s->default_grid().budgets.back() << ")  " << s->description()
        << "\n";
  }
}

/// The flags each command reads; any other flag exits 2 naming it.
constexpr std::string_view kServeFlags[] = {
    "--port", "--shards", "--players", "--protocol", "--n", "--coin-seed",
    "--scenario", "--budget", "--trial-seed", "--timeout-ms",
    "--metrics-out", "--metrics-interval-ms", "--list-scenarios"};
constexpr std::string_view kPlayerFlags[] = {
    "--host", "--port", "--index", "--players", "--protocol", "--n", "--p",
    "--graph-seed", "--coin-seed", "--scenario", "--budget", "--trial-seed",
    "--timeout-ms", "--metrics-out", "--metrics-interval-ms",
    "--list-scenarios"};

Options parse(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options opt;
  opt.command = argv[1];
  if (opt.command == "--list-scenarios") {
    opt.list_scenarios = true;
    return opt;
  }
  std::span<const std::string_view> known;
  if (opt.command == "serve") {
    known = kServeFlags;
  } else if (opt.command == "player") {
    known = kPlayerFlags;
  } else {
    usage(argv[0]);
  }
  const ds::tools::Args args("distsketch_service", argc - 2, argv + 2);
  if (args.bad() || !args.positional.empty()) usage(argv[0]);
  if (const std::string* flag = args.unknown_flag(known)) {
    std::cerr << "distsketch_service: unknown flag " << *flag << " for "
              << opt.command << "\n";
    std::exit(2);
  }
  using Ms = std::chrono::milliseconds;
  opt.list_scenarios = args.has("--list-scenarios");
  opt.host = args.get("--host", opt.host);
  opt.port = args.get_number("--port", opt.port);
  opt.protocol = args.get("--protocol", opt.protocol);
  opt.protocol_set = args.has("--protocol");
  opt.scenario = args.get("--scenario", opt.scenario);
  opt.budget = args.get_number("--budget", opt.budget);
  opt.trial_seed = args.get_number("--trial-seed", opt.trial_seed);
  opt.n = args.get_number("--n", opt.n);
  opt.p = args.get_number("--p", opt.p);
  opt.graph_seed = args.get_number("--graph-seed", opt.graph_seed);
  opt.coin_seed = args.get_number("--coin-seed", opt.coin_seed);
  opt.players = args.get_number("--players", opt.players);
  opt.index = args.get_number("--index", opt.index);
  opt.shards = args.get_number("--shards", opt.shards);
  opt.timeout = Ms(args.get_number("--timeout-ms", opt.timeout.count()));
  opt.metrics_out = args.get("--metrics-out", opt.metrics_out);
  opt.metrics_interval = Ms(
      args.get_number("--metrics-interval-ms", opt.metrics_interval.count()));
  if (opt.shards == 0) {
    std::cerr << "distsketch_service: --shards must be at least 1\n";
    usage(argv[0]);
  }
  if (opt.players == 0 || opt.index >= opt.players) {
    std::cerr << "distsketch_service: --players must be at least 1 and"
                 " --index below it\n";
    usage(argv[0]);
  }
  if (!opt.metrics_out.empty() || opt.metrics_interval.count() > 0) {
    ds::obs::set_metrics_enabled(true);
  }
  return opt;
}

/// Scenario-mode argument checks: unknown ids are rejected with a
/// did-you-mean (exit 2), and an explicit --protocol is refused up front.
const ds::scenario::Scenario* resolve_scenario(const Options& opt) {
  const ds::scenario::Scenario* s = ds::scenario::find(opt.scenario);
  if (s == nullptr) {
    std::cerr << "distsketch_service: unknown scenario '" << opt.scenario
              << "'";
    if (const auto near = ds::scenario::suggest(opt.scenario)) {
      std::cerr << " (did you mean '" << *near << "'?)";
    }
    std::cerr << "\n";
    print_scenarios(std::cerr);
    std::exit(2);
  }
  if (opt.protocol_set) {
    std::cerr << "distsketch_service: --scenario and --protocol are"
                 " mutually exclusive\n";
    std::exit(2);
  }
  return s;
}

void print_wire(const char* label, const ds::service::WireStats& w) {
  std::cout << "  " << label << ": " << w.frames << " frames in "
            << w.messages << " messages, payload " << w.payload_bits
            << " bits, framing " << w.framing_bits << " bits ("
            << w.rejected_frames << " rejected)\n";
}

/// Shared tail of every protocol branch: the wire accounting every
/// ServeResult carries.
template <typename Result>
void print_serve_wire(const Result& r) {
  print_wire("uplink", r.uplink);
  print_wire("downlink", r.downlink);
}

/// Protocol dispatch: `--shards` changes how the referee ingests, never
/// the protocol semantics or the result.
int serve_protocols(ds::service::RefereeService& referee,
                    const Options& opt) {
  if (opt.protocol == "spanning-forest") {
    const ds::protocols::AgmSpanningForest protocol;
    const auto r = referee.run(protocol, opt.n);
    std::cout << "referee: spanning forest with " << r.output.size()
              << " edges; max player " << r.comm.max_bits << " bits\n";
    print_serve_wire(r);
  } else if (opt.protocol == "connectivity") {
    const ds::protocols::AgmConnectivity protocol;
    const auto r = referee.run(protocol, opt.n);
    std::cout << "referee: " << r.output
              << " connected component(s); max player " << r.comm.max_bits
              << " bits\n";
    print_serve_wire(r);
  } else if (opt.protocol == "two-round-matching") {
    const ds::protocols::TwoRoundMatching protocol{8, 16};
    const auto r = referee.run(protocol, opt.n);
    std::cout << "referee: matching of size " << r.output.size() << " in "
              << r.by_round.size() << " rounds; max player "
              << r.comm.max_bits << " bits, broadcast "
              << r.broadcast_bits << " bits\n";
    print_serve_wire(r);
  } else {
    std::cerr << "unknown protocol " << opt.protocol << "\n";
    return 2;
  }
  write_metrics_snapshot(opt.metrics_out);
  return 0;
}

int run_serve(const Options& opt) {
  const ds::scenario::Scenario* scenario =
      opt.scenario.empty() ? nullptr : resolve_scenario(opt);
  const MetricsReporter reporter(opt.metrics_interval);
  ds::wire::TcpListener listener(opt.port);
  std::cout << "referee: listening on 127.0.0.1:" << listener.port()
            << ", awaiting " << opt.players << " player(s) across "
            << opt.shards << " shard(s)\n";

  ds::service::RefereeService referee(opt.shards, opt.coin_seed,
                                      opt.timeout);
  {
    const ds::obs::ScopedSpan accept_span(
        "service.accept", &ds::obs::histogram("service.accept_us"));
    for (std::size_t i = 0; i < opt.players; ++i) {
      const int fd = listener.accept_fd(opt.timeout);
      if (fd < 0) {
        std::cerr << "referee: player " << i << " never connected\n";
        return 1;
      }
      (void)referee.adopt_fd(fd);
    }
  }
  if (scenario != nullptr) {
    const std::size_t budget = opt.budget > 0
                                   ? opt.budget
                                   : scenario->default_grid().budgets.back();
    const ds::scenario::TrialOutcome outcome =
        scenario->serve_trial(referee, budget, opt.trial_seed);
    std::cout << "referee: scenario " << scenario->id() << " budget "
              << budget << " seed " << opt.trial_seed << ": "
              << (outcome.success ? "SUCCESS" : "FAIL") << ", max player "
              << outcome.max_bits << " bits, output hash 0x" << std::hex
              << outcome.output_hash << std::dec << "\n";
    write_metrics_snapshot(opt.metrics_out);
    return 0;
  }
  return serve_protocols(referee, opt);
}

int run_player(const Options& opt) {
  if (!opt.scenario.empty()) {
    const ds::scenario::Scenario* scenario = resolve_scenario(opt);
    const MetricsReporter reporter(opt.metrics_interval);
    const std::vector<ds::graph::Vertex> owned = ds::service::shard_vertices(
        scenario->num_vertices(), opt.players, opt.index);
    const std::size_t budget = opt.budget > 0
                                   ? opt.budget
                                   : scenario->default_grid().budgets.back();
    std::unique_ptr<ds::wire::Link> link =
        ds::wire::tcp_connect(opt.host, opt.port, opt.timeout);
    std::cout << "player " << opt.index << ": connected, " << owned.size()
              << " vertices of scenario " << scenario->id() << "\n";
    const std::uint64_t hash =
        scenario->play_trial(*link, owned, budget, opt.trial_seed,
                             opt.timeout);
    std::cout << "player " << opt.index << ": output hash 0x" << std::hex
              << hash << std::dec << "\n";
    write_metrics_snapshot(opt.metrics_out);
    return 0;
  }
  const MetricsReporter reporter(opt.metrics_interval);
  ds::util::Rng rng(opt.graph_seed);
  const ds::graph::Graph g = ds::graph::gnp(opt.n, opt.p, rng);
  const std::vector<ds::graph::Vertex> owned =
      ds::service::shard_vertices(opt.n, opt.players, opt.index);
  const ds::model::PublicCoins coins(opt.coin_seed);

  std::unique_ptr<ds::wire::Link> link =
      ds::wire::tcp_connect(opt.host, opt.port, opt.timeout);
  std::cout << "player " << opt.index << ": connected, " << owned.size()
            << " vertices\n";

  if (opt.protocol == "spanning-forest") {
    const ds::protocols::AgmSpanningForest protocol;
    const auto forest = ds::service::play_protocol(
        *link, g, owned, protocol, coins, opt.timeout);
    std::cout << "player " << opt.index << ": result has "
              << forest.size() << " forest edges\n";
  } else if (opt.protocol == "connectivity") {
    const ds::protocols::AgmConnectivity protocol;
    const auto components = ds::service::play_protocol(
        *link, g, owned, protocol, coins, opt.timeout);
    std::cout << "player " << opt.index << ": " << components
              << " component(s)\n";
  } else if (opt.protocol == "two-round-matching") {
    const ds::protocols::TwoRoundMatching protocol{8, 16};
    const auto matching = ds::service::play_protocol(
        *link, g, owned, protocol, coins, opt.timeout);
    std::cout << "player " << opt.index << ": matching size "
              << matching.size() << "\n";
  } else {
    std::cerr << "unknown protocol " << opt.protocol << "\n";
    return 2;
  }
  write_metrics_snapshot(opt.metrics_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (opt.list_scenarios) {
      print_scenarios(std::cout);
      return 0;
    }
    return opt.command == "serve" ? run_serve(opt) : run_player(opt);
  } catch (const std::exception& e) {
    std::cerr << "distsketch_service: " << e.what() << "\n";
    return 1;
  }
}
