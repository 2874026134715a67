// Bit-identity of the batched/cached hot paths against their scalar
// originals: every transform in the encode pipeline — batched hashing,
// the shape-only OneSparseBank, the L0 add_batch entry point, the AGM
// shape cache and the thread-local encode row — must produce
// byte-for-byte the streams the scalar per-edge path produced.
// Equality is always checked on the serialized output, the only thing a
// referee ever sees.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "graph/generators.h"
#include "model/coins.h"
#include "sketch/agm.h"
#include "sketch/l0_sampler.h"
#include "sketch/one_sparse.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace ds::sketch {
namespace {

util::BitString serialize(const auto& sketch) {
  util::BitWriter w;
  sketch.write(w);
  return util::BitString(std::move(w));
}

/// Serialized summary states (a bank's, a sampler's or an AGM row).
util::BitString serialize_states(std::span<const std::uint64_t> states) {
  util::BitWriter w;
  write_states(states, w);
  return util::BitString(std::move(w));
}

void expect_same_stream(const util::BitString& a, const util::BitString& b,
                        const char* what) {
  EXPECT_EQ(a.bit_count(), b.bit_count()) << what;
  EXPECT_EQ(a.words(), b.words()) << what;
}

TEST(BatchEquivalence, KWiseHashBatchMatchesScalar) {
  util::Rng rng(0xBA7C);
  for (unsigned k : {2u, 3u, 5u}) {
    util::Rng draw = rng.child(k);
    const util::KWiseHash h(k, draw);
    std::vector<std::uint64_t> xs;
    for (int i = 0; i < 257; ++i) xs.push_back(rng.next());
    xs.push_back(0);
    xs.push_back(~std::uint64_t{0});

    std::vector<std::uint64_t> batch(xs.size());
    h.eval_batch(xs, batch);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(batch[i], h(xs[i])) << "k=" << k << " i=" << i;
    }
  }
}

TEST(BatchEquivalence, SampleLevelBatchMatchesScalar) {
  util::Rng rng(0x1E7E);
  const util::KWiseHash h = util::make_pairwise(rng);
  std::vector<std::uint64_t> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.next_below(1u << 20));
  std::vector<std::uint32_t> levels(xs.size());
  util::sample_level_batch(h, xs, 14, levels);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(levels[i], util::sample_level(h, xs[i], 14)) << i;
  }
}

TEST(BatchEquivalence, BankSlotMatchesStandaloneOneSparse) {
  // Slot i of a bank built from tags[i] must hold exactly the state of a
  // standalone OneSparse with the same (coins, tag, universe) fed the
  // same updates — including after merge — as seen through write().
  const model::PublicCoins coins(42);
  const std::uint64_t universe = 100000;
  const std::vector<std::uint64_t> tags = {7, 1234, 0xFFFF'FFFF'FFFFull};

  const OneSparseBank bank = OneSparseBank::make(coins, tags, universe);
  std::vector<std::uint64_t> state(bank.state_words());
  std::vector<OneSparse> singles;
  for (std::uint64_t tag : tags) {
    singles.push_back(OneSparse::make(coins, tag, universe));
  }

  util::Rng rng(0x0451);
  for (int step = 0; step < 200; ++step) {
    const std::size_t slot = rng.next_below(tags.size());
    const std::uint64_t index = rng.next_below(universe);
    const std::int64_t delta =
        static_cast<std::int64_t>(rng.next_below(7)) - 3;  // incl. 0
    bank.add(state, slot, index, delta);
    singles[slot].add(index, delta);
  }
  // merge must also agree (it drives referee-side pooling): doubling the
  // bank must match doubling each standalone summary.
  std::vector<std::uint64_t> merged = state;
  merge_states(merged, state);

  const util::BitString bank_bits = serialize_states(state);
  util::BitReader bank_r(bank_bits);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    util::BitWriter single_w;
    singles[i].write(single_w);
    const util::BitString single_bits(single_w);
    // Compare the bank's slot-i section bit for bit.
    util::BitReader sr(single_bits);
    for (unsigned field = 0; field < 3; ++field) {
      const unsigned width = field == 0 ? 64 : 61;
      ASSERT_EQ(bank_r.get_bits(width), sr.get_bits(width))
          << "slot " << i << " field " << field;
    }
    // Decode agreement, including status.
    const DecodeResult a = bank.decode(state, i);
    const DecodeResult b = singles[i].decode();
    ASSERT_EQ(static_cast<int>(a.status), static_cast<int>(b.status)) << i;
    if (a.status == DecodeStatus::kOne) {
      ASSERT_EQ(a.value.index, b.value.index);
      ASSERT_EQ(a.value.count, b.value.count);
    }

    OneSparse merged_single = singles[i];
    merged_single.merge(singles[i]);
    const DecodeResult m = bank.decode(merged, i);
    const DecodeResult ms = merged_single.decode();
    ASSERT_EQ(static_cast<int>(m.status), static_cast<int>(ms.status)) << i;
  }
}

/// One summary's serialized state words: (ell0, ell1, fp).
struct StateWords {
  std::uint64_t ell0 = 0;
  std::uint64_t ell1 = 0;
  std::uint64_t fp = 0;
};

StateWords words_of(const OneSparse& s) {
  const util::BitString bits = serialize(s);
  util::BitReader r(bits);
  return {r.get_bits(64), r.get_bits(61), r.get_bits(61)};
}

void put_words(util::BitWriter& w, const StateWords& s) {
  w.put_bits(s.ell0, 64);
  w.put_bits(s.ell1, 61);
  w.put_bits(s.fp, 61);
}

TEST(BatchEquivalence, BankDecodeMatchesPowModDecode) {
  // OneSparseBank::decode takes z^index from the bank's power tables;
  // OneSparse::decode computes it by square-and-multiply.  Both must
  // return the same status and value on every state a referee can be
  // handed: honest 1-sparse states with counts +-1, +-2 and large,
  // cancelling counts (ell0 == 0, ell1 != 0), candidate indices >=
  // universe, forged fingerprints, 2-sparse states, raw random words, and
  // zero.
  const model::PublicCoins coins(0xDEC0);
  const std::uint64_t p = util::kDefaultPrime;
  const std::vector<std::uint64_t> tags = {3, 0x51, 0xFFFF'0001ull, 77};
  util::Rng rng(0xDEC1);
  int seen[3] = {0, 0, 0};  // per DecodeStatus
  // 1, 1, 2, 2 and 4 power-table windows, at the window boundaries.
  for (const std::uint64_t universe :
       {std::uint64_t{200}, std::uint64_t{256}, std::uint64_t{257},
        std::uint64_t{65536}, std::uint64_t{2147450880}}) {
    const OneSparseBank bank = OneSparseBank::make(coins, tags, universe);
    std::vector<std::uint64_t> state(bank.state_words());
    std::vector<OneSparse> singles;
    for (std::uint64_t tag : tags) {
      singles.push_back(OneSparse::make(coins, tag, universe));
    }
    const auto count = [&rng]() -> std::int64_t {
      constexpr std::int64_t kSmall[] = {1, -1, 2, -2};
      const std::uint64_t pick = rng.next_below(6);
      if (pick < 4) return kSmall[pick];
      const auto big = static_cast<std::int64_t>(rng.next_below(1ull << 40));
      return pick == 4 ? big + 3 : -big - 3;
    };
    const auto index = [&rng, universe]() -> std::uint64_t {
      const std::uint64_t pick = rng.next_below(4);
      if (pick == 0) return 0;
      if (pick == 1) return universe - 1;
      return rng.next_below(universe);
    };
    for (int rep = 0; rep < 300; ++rep) {
      util::BitWriter bank_words;
      std::vector<StateWords> states;
      for (std::size_t slot = 0; slot < tags.size(); ++slot) {
        OneSparse honest = OneSparse::make(coins, tags[slot], universe);
        StateWords s;
        switch (rng.next_below(7)) {
          case 0:  // zero
            break;
          case 1:  // honest 1-sparse
            honest.add(index(), count());
            s = words_of(honest);
            break;
          case 2:  // honest 1-sparse with a forged fingerprint
            honest.add(index(), count());
            s = words_of(honest);
            s.fp = rng.next_below(2) == 0 ? s.fp ^ 1 : rng.next_below(p);
            break;
          case 3:  // cancelling counts: ell0 == 0, ell1 != 0
            s.ell1 = 1 + rng.next_below(p - 1);
            s.fp = rng.next_below(p);
            break;
          case 4: {  // candidate index ell1 / ell0 >= universe
            const std::int64_t c = count();
            const std::uint64_t c_field =
                c > 0 ? static_cast<std::uint64_t>(c)
                      : p - static_cast<std::uint64_t>(-c);
            const std::uint64_t beyond =
                rng.next_below(2) == 0 ? universe + rng.next_below(300)
                                       : universe + rng.next_below(p - universe);
            s.ell0 = static_cast<std::uint64_t>(c);
            s.ell1 = util::mul_mod(c_field, beyond, p);
            s.fp = rng.next_below(p);
            break;
          }
          case 5: {  // honest 2-sparse
            const std::uint64_t a = index();
            const std::uint64_t b = index();
            honest.add(a, count());
            if (b != a) honest.add(b, count());
            s = words_of(honest);
            break;
          }
          default:  // raw random words
            s = {rng.next(), rng.next() & p, rng.next() & p};
            break;
        }
        put_words(bank_words, s);
        states.push_back(s);
      }
      const util::BitString bank_bits(std::move(bank_words));
      util::BitReader bank_reader(bank_bits);
      read_states(state, bank_reader);
      for (std::size_t slot = 0; slot < tags.size(); ++slot) {
        util::BitWriter w;
        put_words(w, states[slot]);
        const util::BitString bits(std::move(w));
        util::BitReader r(bits);
        singles[slot].read(r);
        const DecodeResult got = bank.decode(state, slot);
        const DecodeResult want = singles[slot].decode();
        ASSERT_EQ(static_cast<int>(got.status), static_cast<int>(want.status))
            << "universe=" << universe << " slot=" << slot
            << " ell0=" << states[slot].ell0 << " ell1=" << states[slot].ell1
            << " fp=" << states[slot].fp;
        if (want.status == DecodeStatus::kOne) {
          ASSERT_EQ(got.value.index, want.value.index);
          ASSERT_EQ(got.value.count, want.value.count);
        }
        ++seen[static_cast<int>(want.status)];
      }
    }
  }
  // Every outcome was exercised.
  EXPECT_GT(seen[static_cast<int>(DecodeStatus::kZero)], 100);
  EXPECT_GT(seen[static_cast<int>(DecodeStatus::kOne)], 500);
  EXPECT_GT(seen[static_cast<int>(DecodeStatus::kFail)], 1000);
}

TEST(BatchEquivalence, L0AddBatchMatchesSequentialAdds) {
  const model::PublicCoins coins(7);
  const std::uint64_t universe = 5000;
  util::Rng rng(0x10AD);
  for (std::uint64_t round = 0; round < 10; ++round) {
    const L0Sampler sampler = L0Sampler::make(coins, 0xC0 + round, universe);
    std::vector<std::uint64_t> batched(sampler.state_words());
    std::vector<std::uint64_t> scalar(sampler.state_words());
    std::vector<std::uint64_t> indices;
    std::vector<std::int64_t> deltas;
    const std::size_t count = rng.next_below(40);
    for (std::size_t i = 0; i < count; ++i) {
      indices.push_back(rng.next_below(universe));
      deltas.push_back(static_cast<std::int64_t>(rng.next_below(5)) - 2);
    }
    sampler.add_batch(batched, indices, deltas);
    for (std::size_t i = 0; i < count; ++i) {
      sampler.add(scalar, indices[i], deltas[i]);
    }
    expect_same_stream(serialize_states(batched), serialize_states(scalar),
                       "L0 add_batch");
  }
}

/// The serialized sketch of the single edge {3, 17} from vertex 3.
util::BitString edge_3_17(const AgmSketch& shape) {
  std::vector<std::uint64_t> row(shape.row_words());
  shape.add_single_edge(row, 3, 17);
  return serialize_states(row);
}

TEST(BatchEquivalence, AgmMakeCachedMatchesMake) {
  // Cached shapes must be indistinguishable from fresh make() across
  // distinct seeds, tags and round counts (including cache hits).
  for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
    const model::PublicCoins coins(seed);
    for (std::uint64_t tag : {0xA6A6ull, 0x77ull}) {
      for (unsigned rounds : {0u, 3u}) {
        const AgmSketch fresh = AgmSketch::make(coins, 50, rounds, tag);
        // Call twice: the first may populate the cache, the second hits.
        const AgmSketch& c1 = AgmSketch::cached(coins, 50, rounds, tag);
        const AgmSketch& c2 = AgmSketch::cached(coins, 50, rounds, tag);
        EXPECT_EQ(&c1, &c2) << "a hit returns the cached shape";
        expect_same_stream(edge_3_17(fresh), edge_3_17(c1), "cached");
        expect_same_stream(edge_3_17(fresh), edge_3_17(c2), "cached hit");
      }
    }
  }
}

TEST(BatchEquivalence, AgmVertexEdgesMatchesSingleEdgeLoop) {
  util::Rng rng(0xED6E);
  const graph::Graph g = graph::gnp(60, 0.15, rng);
  const model::PublicCoins coins(31);
  const AgmSketch shape = AgmSketch::make(coins, 60);
  for (graph::Vertex v = 0; v < g.num_vertices(); v += 7) {
    std::vector<std::uint64_t> batched(shape.row_words());
    std::vector<std::uint64_t> scalar(shape.row_words());
    shape.add_vertex_edges(batched, v, g.neighbors(v));
    for (graph::Vertex w : g.neighbors(v)) shape.add_single_edge(scalar, v, w);
    expect_same_stream(serialize_states(batched), serialize_states(scalar),
                       "add_vertex_edges");
    // encode() builds the same row in its reused thread-local buffer.
    util::BitWriter encoded;
    shape.encode(v, g.neighbors(v), encoded);
    expect_same_stream(util::BitString(std::move(encoded)),
                       serialize_states(scalar), "encode");
  }
}

TEST(BatchEquivalence, MersenneReductionMatchesGenericModulus) {
  // mul_mod's Mersenne-2^61-1 fold must equal the hardware % path for the
  // same operands — cross-checked against a 128-bit division oracle.
  util::Rng rng(0x3D5);
  const std::uint64_t p = util::kDefaultPrime;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng.next() % p;
    const std::uint64_t b = rng.next() % p;
    const auto oracle = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(a) * b) % p);
    ASSERT_EQ(util::mul_mod(a, b, p), oracle) << a << " * " << b;
  }
  // Boundary operands.
  for (std::uint64_t a : {std::uint64_t{0}, std::uint64_t{1}, p - 1, p - 2}) {
    for (std::uint64_t b :
         {std::uint64_t{0}, std::uint64_t{1}, p - 1, p - 2}) {
      const auto oracle = static_cast<std::uint64_t>(
          (static_cast<__uint128_t>(a) * b) % p);
      ASSERT_EQ(util::mul_mod(a, b, p), oracle);
    }
  }
}

}  // namespace
}  // namespace ds::sketch
