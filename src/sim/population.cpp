#include "sim/population.h"

#include "common/digest_index.h"

namespace anc::sim {

std::vector<TagId> MakePopulation(std::size_t n, anc::Pcg32& rng) {
  std::vector<TagId> tags;
  tags.reserve(n);
  DigestIndex seen(n);
  while (tags.size() < n) {
    const auto hi = static_cast<std::uint16_t>(rng() & 0xFFFF);
    const std::uint64_t lo =
        (static_cast<std::uint64_t>(rng()) << 32) | rng();
    TagId id = TagId::FromPayload(hi, lo);
    if (seen.Insert(id.Digest(), static_cast<std::uint32_t>(tags.size()))) {
      tags.push_back(id);
    }
  }
  return tags;
}

}  // namespace anc::sim
