#include "protocols/peeling.h"

namespace anc::protocols {

void PeelingDecoder::Reset(std::uint32_t num_tags) {
  eq_start_.assign(1, 0);
  eq_tags_.clear();
  count_.clear();
  xor_.clear();
  decoded_.assign(num_tags, 0);
  reads_.clear();
  pops_ = 0;
}

void PeelingDecoder::AddEquation(std::span<const std::uint32_t> tags) {
  std::uint32_t x = 0;
  for (const std::uint32_t tag : tags) x ^= tag;
  eq_tags_.insert(eq_tags_.end(), tags.begin(), tags.end());
  eq_start_.push_back(static_cast<std::uint32_t>(eq_tags_.size()));
  count_.push_back(static_cast<std::uint32_t>(tags.size()));
  xor_.push_back(x);
}

void PeelingDecoder::Decode() {
  const auto n_eq = static_cast<std::uint32_t>(count_.size());

  // Counting sort of the edges by tag. Counts land at tag_start_[t + 2],
  // so after the prefix sum tag_start_[t + 1] is t's first slot; filling
  // advances it to t's end, which is where t + 1 begins.
  tag_start_.assign(decoded_.size() + 2, 0);
  for (const std::uint32_t tag : eq_tags_) ++tag_start_[tag + 2];
  for (std::size_t t = 2; t < tag_start_.size(); ++t) {
    tag_start_[t] += tag_start_[t - 1];
  }
  incidence_.resize(eq_tags_.size());
  for (std::uint32_t e = 0; e < n_eq; ++e) {
    for (std::uint32_t i = eq_start_[e]; i < eq_start_[e + 1]; ++i) {
      incidence_[tag_start_[eq_tags_[i] + 1]++] = e;
    }
  }

  ready_.clear();
  for (std::uint32_t e = 0; e < n_eq; ++e) {
    if (count_[e] == 1) ready_.push_back(e);
  }
  for (std::size_t head = 0; head < ready_.size();) {
    const std::uint32_t e = ready_[head++];
    ++pops_;
    if (count_[e] != 1) continue;  // emptied while queued
    const std::uint32_t tag = xor_[e];
    decoded_[tag] = 1;
    reads_.push_back({tag, e});
    for (std::uint32_t k = tag_start_[tag]; k < tag_start_[tag + 1]; ++k) {
      const std::uint32_t f = incidence_[k];
      xor_[f] ^= tag;
      if (--count_[f] == 1) ready_.push_back(f);
    }
  }
}

}  // namespace anc::protocols
