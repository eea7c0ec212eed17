// The abstract phy the paper's evaluation assumes (Section III-B / VI): a
// k-collision slot is resolvable iff k <= lambda and k-1 constituents are
// known. Optional imperfections:
//   resolution_success_prob  — Section IV-E: noisy environments make some
//                              collision slots unresolvable; a failed
//                              record is only wasted, never wrong.
//   singleton_corrupt_prob   — channel error on a report segment: the CRC
//                              fails and the slot is recorded like a
//                              collision (the tag retries later).
//
// Records live in a flat arena: per-record metadata in one vector,
// participant lists appended to one shared index array. Opening a record
// costs one metadata push plus an append — no per-record node allocation —
// which is what lets the engine's slot loop run allocation-free once the
// arena reaches steady-state capacity.
//
// RNG discipline: batch calls draw in slot/request span order, exactly as
// the old slot-at-a-time interface did, so golden traces recorded against
// that interface stay byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "phy/phy.h"

namespace anc::phy {

struct IdealPhyConfig {
  unsigned lambda = 2;
  double resolution_success_prob = 1.0;
  double singleton_corrupt_prob = 0.0;
};

class IdealPhy final : public PhyInterface {
 public:
  using Config = IdealPhyConfig;

  IdealPhy(std::span<const TagId> population, IdealPhyConfig config,
           anc::Pcg32 rng);

  void ObserveBatch(const SlotBatch& batch,
                    std::span<SlotObservation> out) override;

  void TryResolveBatch(std::span<const ResolveRequest> requests,
                       std::span<std::optional<TagId>> out) override;

  void ReleaseRecord(RecordHandle record) override;

  [[nodiscard]] std::size_t OpenRecords() const override {
    return open_records_;
  }

  // Checkpoint hooks (common/serialize.h wire format): the noise RNG
  // stream and the whole record arena; population and config are
  // construction-time.
  void SaveState(std::string* out) const;
  bool RestoreState(anc::ser::Reader& r);

 private:
  struct Record {
    std::uint32_t offset = 0;  // into participants_arena_
    std::uint32_t count = 0;
    bool open = false;
    bool doomed = false;  // resolution attempt already failed (noise draw)
  };

  std::optional<TagId> ResolveOne(const ResolveRequest& request);

  std::span<const TagId> population_;
  IdealPhyConfig config_;
  anc::Pcg32 rng_;
  std::vector<Record> records_;
  std::vector<std::uint32_t> participants_arena_;
  std::size_t open_records_ = 0;
};

}  // namespace anc::phy
