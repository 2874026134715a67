#include "sketch/kmv.h"

#include <algorithm>
#include <cassert>

namespace ds::sketch {

namespace {
// Hash range: the field size of the default prime (values are < p).
constexpr double kRange = static_cast<double>(util::kDefaultPrime);
constexpr unsigned kValueBits = 61;
}  // namespace

KmvSketch KmvSketch::make(const model::PublicCoins& coins, std::uint64_t tag,
                          std::uint32_t k) {
  assert(k >= 2);
  KmvSketch s;
  s.k_ = k;
  s.hash_ = coins.hash(model::coin_tag(model::CoinTag::kBucketHash,
                                       util::mix64(0x6B6D76, tag)),
                       2);
  return s;
}

void KmvSketch::insert_hash(std::uint64_t h) {
  const auto it = std::lower_bound(values_.begin(), values_.end(), h);
  if (it != values_.end() && *it == h) return;  // duplicate id
  if (values_.size() == k_) {
    if (h >= values_.back()) return;  // not among the k smallest
    values_.pop_back();
  }
  values_.insert(std::lower_bound(values_.begin(), values_.end(), h), h);
}

void KmvSketch::add(std::uint64_t id) { insert_hash((*hash_)(id)); }

void KmvSketch::merge(const KmvSketch& other) {
  assert(k_ == other.k_);
  for (std::uint64_t h : other.values_) insert_hash(h);
}

double KmvSketch::estimate() const {
  if (values_.size() < k_) return static_cast<double>(values_.size());
  // Standard KMV estimator: (k-1) / U(h_(k)) with U the uniformized hash.
  const double kth = static_cast<double>(values_.back());
  return (static_cast<double>(k_) - 1.0) * kRange / kth;
}

void KmvSketch::write(util::BitWriter& out) const {
  out.put_gamma(values_.size() + 1);
  for (std::uint64_t v : values_) out.put_bits(v, kValueBits);
}

void KmvSketch::read(util::BitReader& in) {
  values_.clear();
  const std::uint64_t count = in.get_span_length(kValueBits);
  values_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    values_.push_back(in.get_bits(kValueBits));
  }
  std::sort(values_.begin(), values_.end());
  if (values_.size() > k_) values_.resize(k_);
}

}  // namespace ds::sketch
