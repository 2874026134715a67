// Turnstile stream CLI (docs/STREAMING.md): generate synthetic update
// streams in the versioned binary format, inspect/validate stream
// files, and ingest them into a DynamicConnectivity sketch.
//
// Subcommands:
//   generate --out s.stream [--family rmat|chung-lu] [--n N]
//            [--edges M] [--delete-fraction F] [--seed S]
//            [--exponent E]
//       Stream a GeneratorStream straight through BinaryStreamWriter —
//       never materializes the sequence, so n >= 10^6 works in a few
//       hundred MB of RSS.
//   info <s.stream>
//       Print the header, then scan every record; exits nonzero (with
//       the distinguished ReadStatus) on any malformed input.
//   ingest <s.stream> [--threads T] [--batch B] [--query-interval Q]
//          [--rounds R] [--sketch-seed S] [--serial]
//       Drain the file into a sketch, print the ingest report,
//       component count and state hash.  --threads 0 uses the
//       configured pool width.  A header whose n asks for more sketch
//       state than the host's physical memory is refused before any
//       state is allocated (`invalid header: state-too-large`, exit 1).
//
// Numeric flags are checked (tools/flags.h): a value that is not all
// digits, or does not fit its field, exits 2 naming the flag.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "flags.h"
#include "parallel/thread_pool.h"
#include "sketch/agm.h"
#include "streamio/generator_stream.h"
#include "streamio/ingestor.h"

namespace {

using namespace ds;

int usage() {
  std::cerr
      << "usage:\n"
      << "  distsketch_stream generate --out FILE [--family rmat|chung-lu]"
         " [--n N] [--edges M]\n"
      << "                    [--delete-fraction F] [--seed S]"
         " [--exponent E]\n"
      << "  distsketch_stream info FILE\n"
      << "  distsketch_stream ingest FILE [--threads T] [--batch B]"
         " [--query-interval Q]\n"
      << "                    [--rounds R] [--sketch-seed S] [--serial]\n";
  return 2;
}

/// Pull `--flag value` pairs out of argv; positional args stay in order.
struct Args {
  std::vector<std::string> positional;

  explicit Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        if (arg == "--serial") {
          flags_.emplace_back(arg, "1");
        } else if (i + 1 < argc) {
          flags_.emplace_back(arg, argv[++i]);
        } else {
          bad_ = true;
        }
      } else {
        positional.push_back(arg);
      }
    }
  }

  [[nodiscard]] bool bad() const noexcept { return bad_; }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    for (const auto& [k, v] : flags_) {
      if (k == name) return v;
    }
    return fallback;
  }
  /// A numeric flag's value as the T it sets, checked (tools/flags.h):
  /// bad input exits 2 naming the flag.
  template <typename T>
  [[nodiscard]] T get_number(const std::string& name, T fallback) const {
    for (const auto& [k, v] : flags_) {
      if (k == name) return tools::parse_flag<T>("distsketch_stream", k, v);
    }
    return fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  bool bad_ = false;
};

/// Bytes of sketch state an ingest holds at once: the n-row table, plus
/// the one snapshot copy a background query takes.  Saturates instead of
/// wrapping.
std::uint64_t ingest_state_bytes(graph::Vertex n, unsigned rounds,
                                 bool snapshots) {
  if (rounds == 0) rounds = sketch::agm_default_rounds(n);
  const std::uint64_t row_bytes = sketch::agm_row_words(n, rounds) *
                                  sizeof(std::uint64_t) *
                                  (snapshots ? 2 : 1);
  std::uint64_t bytes = 0;
  if (__builtin_mul_overflow(std::uint64_t{n}, row_bytes, &bytes)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return bytes;
}

/// The host's physical memory; the maximum if it cannot be read.
std::uint64_t physical_memory_bytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_size <= 0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(pages) *
         static_cast<std::uint64_t>(page_size);
}

int cmd_generate(const Args& args) {
  const std::string out = args.get("--out", "");
  if (out.empty()) return usage();
  streamio::GeneratorConfig config;
  const std::string family = args.get("--family", "rmat");
  if (family == "rmat") {
    config.family = streamio::Family::kRmat;
  } else if (family == "chung-lu") {
    config.family = streamio::Family::kChungLu;
  } else {
    std::cerr << "unknown family: " << family << "\n";
    return 2;
  }
  config.n = args.get_number<graph::Vertex>("--n", 1u << 16);
  config.edges = args.get_number<std::uint64_t>("--edges", 4 * config.n);
  config.delete_fraction = args.get_number("--delete-fraction", 0.1);
  config.seed = args.get_number<std::uint64_t>("--seed", 1);
  config.chung_lu_exponent = args.get_number("--exponent", 2.5);

  streamio::GeneratorStream source(config);
  streamio::BinaryStreamWriter writer(out, config.n, config.seed);
  std::vector<stream::EdgeUpdate> buf(std::size_t{1} << 15);
  for (;;) {
    const std::size_t got = source.next_batch(buf);
    if (got == 0) break;
    writer.append(std::span<const stream::EdgeUpdate>(buf.data(), got));
  }
  if (!writer.finish()) {
    std::cerr << "write failed: " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << ": n=" << config.n << " updates="
            << writer.updates_written() << " family=" << family
            << " seed=" << config.seed << "\n";
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) return usage();
  streamio::BinaryStreamReader reader(args.positional[0]);
  if (streamio::is_error(reader.status())) {
    std::cerr << "invalid header: " << to_string(reader.status()) << "\n";
    return 1;
  }
  std::cout << "n=" << reader.header().n
            << " updates=" << reader.header().updates
            << " seed=" << reader.header().seed << "\n";
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::vector<stream::EdgeUpdate> buf(std::size_t{1} << 15);
  for (;;) {
    const std::size_t got = reader.next_batch(buf);
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      (buf[i].insert ? inserts : deletes) += 1;
    }
  }
  if (reader.status() != streamio::ReadStatus::kEnd) {
    std::cerr << "invalid stream after " << inserts + deletes
              << " updates: " << to_string(reader.status()) << "\n";
    return 1;
  }
  std::cout << "valid: " << inserts << " inserts, " << deletes
            << " deletes, " << reader.bytes_read() << " bytes\n";
  return 0;
}

int cmd_ingest(const Args& args) {
  if (args.positional.size() != 1) return usage();
  streamio::BinaryStreamReader reader(args.positional[0]);
  if (streamio::is_error(reader.status())) {
    std::cerr << "invalid header: " << to_string(reader.status()) << "\n";
    return 1;
  }

  const auto threads = args.get_number<std::size_t>("--threads", 0);
  streamio::IngestOptions options;
  options.batch_updates =
      args.get_number<std::size_t>("--batch", std::size_t{1} << 16);
  options.query_interval =
      args.get_number<std::uint64_t>("--query-interval", 0);
  options.serial = args.get("--serial", "").empty() ? false : true;
  const auto rounds = args.get_number<unsigned>("--rounds", 2);

  // A header may claim any n below 2^32: check what that n costs before
  // allocating any of it.
  const graph::Vertex n = reader.header().n;
  const std::uint64_t state_bytes =
      ingest_state_bytes(n, rounds, options.query_interval > 0);
  const std::uint64_t memory_bytes = physical_memory_bytes();
  if (state_bytes > memory_bytes) {
    std::cerr << "invalid header: state-too-large n=" << n
              << " state_bytes=" << state_bytes
              << " physical_memory_bytes=" << memory_bytes << "\n";
    return 1;
  }

  std::unique_ptr<parallel::ThreadPool> pool;
  if (!options.serial && threads > 0) {
    pool = std::make_unique<parallel::ThreadPool>(threads);
    options.pool = pool.get();
  }
  stream::DynamicConnectivity state(
      n, args.get_number<std::uint64_t>("--sketch-seed", 2020), rounds);
  const streamio::IngestReport report =
      streamio::ingest(reader, state, options);
  if (report.status != streamio::ReadStatus::kEnd) {
    std::cerr << "ingest stopped: " << to_string(report.status) << "\n";
    return 1;
  }
  std::cout << "ingested " << report.updates << " updates ("
            << report.inserts << " ins, " << report.deletes << " del) in "
            << report.wall_ms << "ms ("
            << static_cast<std::uint64_t>(report.updates_per_sec())
            << " updates/sec)\n";
  for (const streamio::QuerySnapshot& s : report.snapshots) {
    std::cout << "  snapshot @" << s.after_updates << ": components="
              << s.components << " decode=" << s.decode_ms << "ms\n";
  }
  char hash[19];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(state.state_hash()));
  std::cout << "components=" << state.query_components()
            << " state_bits=" << state.state_bits() << " hash=" << hash
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc - 2, argv + 2);
  if (args.bad()) return usage();
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "ingest") return cmd_ingest(args);
  return usage();
}
