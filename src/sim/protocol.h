// The protocol abstraction the experiment runner drives.
//
// A Protocol instance simulates one complete reading process: the reader's
// logic plus the deterministic tag-side rules of that protocol, over a
// fixed population. Step() advances by one time slot; Finished() reports
// the protocol's own termination condition (not an oracle's).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/tag_id.h"
#include "sim/metrics.h"
#include "trace/sink.h"

namespace anc::sim {

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;

  // Advances the simulation by one slot (or one query, for tree
  // protocols; both occupy one slot of air time).
  virtual void Step() = 0;

  virtual bool Finished() const = 0;

  virtual const RunMetrics& metrics() const = 0;

  // Attaches a per-slot trace stream (src/trace). Called after
  // construction and before the first Step(); the sink inside `context`
  // must outlive the protocol. Instrumented protocols (the collision-aware
  // engine, DFSA, deployments) override this; the default keeps
  // uninstrumented protocols valid — they simply emit nothing.
  virtual void AttachTrace(const trace::TraceContext& /*context*/) {}

  // --- Deployment hooks (src/deploy, cross-reader record sharing) ---
  //
  // IDs newly identified during the most recent Step(). The deployment
  // layer broadcasts these to neighbouring readers whose coverage disks
  // overlap this reader's. Protocols without sharing support report none.
  virtual std::span<const TagId> LearnedThisStep() const { return {}; }

  // A neighbouring reader resolved `id` and broadcast it. If this
  // protocol covers the tag, it may mark the tag identified (silencing
  // it) and feed the ID into its open collision records; returns any IDs
  // cascade-resolved as a consequence (excluding `id` itself) so the
  // deployment can propagate them further. The returned span is only
  // valid until the next Step()/InjectKnownId() call on this protocol.
  // Default: sharing unsupported, the broadcast is ignored.
  virtual std::span<const TagId> InjectKnownId(const TagId& /*id*/) {
    return {};
  }

  // --- Churn hooks (src/service, open-world continuous inventory) ---
  //
  // Service mode constructs a protocol over a fixed *universe* of tag IDs
  // (every ID that could ever appear in the run) and then toggles each
  // tag's presence between slots. A protocol that supports churn treats
  // absent tags as silent: they never transmit and never count toward
  // frame sizing. IDs outside the construction-time universe are rejected
  // (return false) — churn never grows the population span.
  virtual bool SupportsChurn() const { return false; }

  // `id` (a universe member) entered the field. Returns false if the
  // protocol does not support churn or does not cover the ID.
  virtual bool ArriveTag(const TagId& /*id*/) { return false; }

  // `id` left the field. The tag stops transmitting from the next slot;
  // signals it already contributed to open collision records remain (a
  // record resolving to a departed tag is the service layer's ghost-read
  // phenomenon). Returns false as ArriveTag does.
  virtual bool DepartTag(const TagId& /*id*/) { return false; }

  // Re-arms a finished protocol for another inventory round over the
  // currently-present population. With `refresh` the protocol forgets
  // which present tags it has read, so the new round re-detects them
  // (continuous sweeps keeping last-seen fresh); without it the round
  // only chases still-unread tags. Returns false when unsupported.
  virtual bool BeginInventoryRound(bool /*refresh*/) { return false; }

  // --- Fault hooks (src/fault, reader crash/recovery) ---
  //
  // Collision records currently held in the protocol's phy store. Tests
  // assert this is 0 after every completed run (the open-record leak
  // fix); protocols without a record store report none.
  virtual std::size_t OpenPhyRecords() const { return 0; }

  // Permanent power-off (a deployment reader dying mid-inventory): the
  // protocol releases every stored signal; the caller stops scheduling it
  // regardless (the deployment keeps its own dead flag). Record-holding
  // protocols override; the default has no state to drop.
  virtual void Shutdown() {}

  // --- Checkpoint hooks (src/service, crash-safe resumable soaks) ---
  //
  // A checkpointable protocol serializes its *mutable* state — everything
  // construction does not rederive — into an opaque blob, and restores it
  // onto a freshly factory-constructed instance of the identical
  // configuration. The contract is bit-exactness: a restored protocol's
  // subsequent Step() stream (RNG draws, metrics, trace events) is
  // byte-identical to the uninterrupted original's. SaveState must only
  // be called between Step() calls (the service checkpoints at epoch
  // boundaries), so per-step scratch is empty by construction and is not
  // serialized. RestoreState returns false on a malformed or mismatched
  // blob, leaving the protocol unusable (callers discard it).
  virtual bool SupportsCheckpoint() const { return false; }
  virtual void SaveState(std::string* /*out*/) const {}
  virtual bool RestoreState(std::string_view /*bytes*/) { return false; }

  // SaveState's bytes, appended to `out` as pieces: what a checkpoint cut
  // writes, so a protocol whose state keeps cached encodings can hand
  // them out as views instead of copying them into one string. The views
  // stay valid until the protocol's next save or Step(). The default
  // appends SaveState's output to out.bytes().
  virtual void SavePieces(ser::Pieces& out) const { SaveState(&out.bytes()); }
};

}  // namespace anc::sim
