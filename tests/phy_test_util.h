// One-shot wrappers over the batched phy interface for tests that
// exercise a single slot or a single resolve attempt. Production code
// submits real batches; tests mostly want the old slot-at-a-time shape,
// so the batch plumbing lives here once instead of in every test. Also
// a logging pass-through phy for tests that watch an engine's phy calls.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/tag_id.h"
#include "phy/phy.h"

namespace anc::phy_test {

inline phy::SlotObservation Observe(
    phy::PhyInterface& phy, std::uint64_t slot,
    std::span<const std::uint32_t> participants) {
  const std::uint64_t slots[] = {slot};
  const std::uint32_t offsets[] = {
      0, static_cast<std::uint32_t>(participants.size())};
  phy::SlotObservation obs[1];
  phy.ObserveBatch(phy::SlotBatch{slots, participants, offsets}, obs);
  return obs[0];
}

inline std::optional<TagId> Resolve(phy::PhyInterface& phy,
                                    phy::RecordHandle record,
                                    std::span<const std::uint32_t> knowns) {
  const phy::ResolveRequest request{record, knowns};
  std::optional<TagId> out[1];
  phy.TryResolveBatch({&request, 1}, out);
  return out[0];
}

// What passed through a WatchedPhy: the resolve requests sent, and each
// record's mixture order while it is open (0 once released), by handle.
struct PhyLog {
  std::uint64_t requests = 0;
  std::vector<std::uint32_t> open_orders;
};

// Forwards every call to the phy it wraps and logs it. With
// `forward_query` false it keeps PhyInterface::RejectsResolve's default
// answer, so its caller sends every resolve request.
class WatchedPhy final : public phy::PhyInterface {
 public:
  WatchedPhy(phy::PhyInterface& inner, bool forward_query, PhyLog* log)
      : inner_(inner), forward_query_(forward_query), log_(log) {}

  void ObserveBatch(const phy::SlotBatch& batch,
                    std::span<phy::SlotObservation> out) override {
    inner_.ObserveBatch(batch, out);
    for (std::size_t i = 0; i < batch.slots(); ++i) {
      if (!out[i].record.valid()) continue;
      const std::uint32_t record = out[i].record.index();
      if (log_->open_orders.size() <= record) {
        log_->open_orders.resize(record + std::size_t{1}, 0);
      }
      log_->open_orders[record] =
          static_cast<std::uint32_t>(batch.ParticipantsOf(i).size());
    }
  }
  void TryResolveBatch(std::span<const phy::ResolveRequest> requests,
                       std::span<std::optional<TagId>> out) override {
    log_->requests += requests.size();
    inner_.TryResolveBatch(requests, out);
  }
  bool RejectsResolve(phy::RecordHandle record,
                      std::size_t knowns) const override {
    return forward_query_ ? inner_.RejectsResolve(record, knowns)
                          : PhyInterface::RejectsResolve(record, knowns);
  }
  void ReleaseRecord(phy::RecordHandle record) override {
    inner_.ReleaseRecord(record);
    if (record.index() < log_->open_orders.size()) {
      log_->open_orders[record.index()] = 0;
    }
  }
  std::size_t OpenRecords() const override { return inner_.OpenRecords(); }

 private:
  phy::PhyInterface& inner_;
  bool forward_query_;
  PhyLog* log_;
};

}  // namespace anc::phy_test
