// Span tracer and timing decorators for anc_bench's traced run.
//
// Timing is taken only from outside each layer, at its public boundary:
// TimedPhy wraps phy::PhyInterface, TimedProtocol wraps sim::Protocol and
// TimedSink wraps trace::TraceSink. Each decorator forwards every call
// unchanged, so a traced op produces the same outputs byte for byte as
// its untraced twin (anc_bench checks this on every traced op).
//
// Spans nest on a stack. Each closed span is folded into an aggregate per
// (parent, name) with its total and self time (duration minus the time
// its child spans cover). Raw spans are kept in memory for the first
// traced op of a workload and written out when the benchmark ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "phy/phy.h"
#include "sim/protocol.h"
#include "store/container.h"
#include "trace/sink.h"

namespace anc::perf {

enum class Span : std::uint8_t {
  kOp,          // one workload op (root of every span tree)
  kCoreStep,    // Protocol::Step of the FCAT engine (src/core)
  kProtoStep,   // Protocol::Step of a coded-ALOHA protocol (src/protocols)
  kObserve,     // PhyInterface::ObserveBatch
  kResolve,     // PhyInterface::TryResolveBatch
  kRelease,     // PhyInterface::ReleaseRecord
  kEmit,        // TraceSink::OnEvent that only buffered the event
  kFlush,       // OnEvent / StoreWriter::Add that completed a store block
  kStoreAdd,    // StoreWriter::Add that only buffered the event
  kChurn,       // Protocol::ArriveTag / DepartTag
  kRound,       // Protocol::BeginInventoryRound
  kShutdown,    // Protocol::Shutdown
  kCut,         // checkpoint cut: on_epoch until the next protocol call
  kSave,        // Protocol::SaveState
  kStoreWrite,  // StoreWriter Open..Finish over the corpus
  kStoreRead,   // StoreReader::Open + ReadAll
  kQuery,       // one QueryFrameWindow
  kTransform,   // EncodeBlockPayload over one writer block
  kLzCompress,  // LzCompress over one block payload
  kCrc,         // Crc32 over one stored payload
  kLzDecompress,
  kDecode,      // DecodeBlockPayload over one block payload
  kSeek,        // a batch of FindBlockForFrame index seeks
  kCount
};

const char* SpanName(Span span);

// Work counts taken at the same boundaries as the spans.
struct Counters {
  std::uint64_t ops = 0;
  std::uint64_t slots = 0;  // simulated slots of the traced ops
  std::uint64_t observed_slots = 0;
  std::uint64_t records_opened = 0;
  std::uint64_t open_records_sum = 0;  // OpenRecords() after each observe
  std::uint64_t open_records_max = 0;
  std::uint64_t resolve_requests = 0;
  std::uint64_t resolve_useful = 0;
  std::uint64_t churn_calls = 0;
  std::uint64_t sink_events = 0;  // protocol events through TimedSink
  std::uint64_t soak_runs = 0;
  std::uint64_t checkpoint_cuts = 0;
  std::uint64_t checkpoint_bytes = 0;  // file size summed over cuts
  std::vector<double> cut_ms;
  std::uint64_t store_events = 0;  // events written to a store
  std::uint64_t store_bytes = 0;   // store file bytes
  // store_rw only.
  std::uint64_t store_blocks = 0;
  std::uint64_t store_raw_bytes = 0;   // columnar payload bytes
  std::uint64_t store_comp_bytes = 0;  // stored payload bytes
  std::uint64_t v1_bytes = 0;          // v1 ANCTRACE bytes of the corpus
  std::uint64_t seeks = 0;
  std::uint64_t query_blocks = 0;
  double write_s = 0, read_s = 0;  // untraced twins
  std::vector<double> query_us;    // untraced twins
};

class Tracer {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct RawSpan {
    std::uint64_t op = 0;  // spans of one op share this identifier
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = none
    Span name = Span::kOp;
    std::int64_t start_ns = 0, end_ns = 0;
  };

  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void BeginOp(std::uint64_t op, bool keep_raw);
  void EndOp();
  void Begin(Span name);
  void End() { EndAs(stack_.back().name); }
  // Closes the innermost span under `name` (a sink call learns whether it
  // flushed a block only after it returns).
  void EndAs(Span name);
  // The checkpoint cut has no call of its own: it opens at on_epoch and
  // closes at the next protocol call.
  void BeginDeferred(Span name) {
    Begin(name);
    deferred_ = true;
  }
  void CloseDeferred() {
    if (deferred_) {
      deferred_ = false;
      End();
    }
  }

  const Agg& agg(Span parent, Span name) const {
    return agg_[Index(parent)][Index(name)];
  }
  // Sums over every parent.
  Agg Total(Span name) const;
  // True while every closed span's children sum to no more than it.
  bool children_within_parent() const { return children_within_parent_; }
  const std::vector<RawSpan>& raw() const { return raw_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::size_t kNames = static_cast<std::size_t>(Span::kCount);
  static constexpr std::size_t kMaxRaw = 200000;
  static std::size_t Index(Span s) { return static_cast<std::size_t>(s); }

  struct Frame {
    Span name;
    std::uint32_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::vector<Frame> stack_;
  std::array<std::array<Agg, kNames>, kNames> agg_{};
  std::vector<RawSpan> raw_;
  Counters counters_;
  std::uint64_t op_ = 0;
  std::uint32_t next_id_ = 1;
  bool keep_raw_ = false;
  bool deferred_ = false;
  bool children_within_parent_ = true;
};

// RAII span for call sites with a single exit.
class Scoped {
 public:
  Scoped(Tracer& t, Span name) : t_(t) { t_.Begin(name); }
  ~Scoped() { t_.End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
};

class TimedPhy final : public phy::PhyInterface {
 public:
  TimedPhy(phy::PhyInterface& inner, Tracer& tracer)
      : inner_(inner), t_(tracer) {}

  void ObserveBatch(const phy::SlotBatch& batch,
                    std::span<phy::SlotObservation> out) override;
  void TryResolveBatch(std::span<const phy::ResolveRequest> requests,
                       std::span<std::optional<TagId>> out) override;
  void ReleaseRecord(phy::RecordHandle record) override;
  std::size_t OpenRecords() const override { return inner_.OpenRecords(); }

 private:
  phy::PhyInterface& inner_;
  Tracer& t_;
};

class TimedSink final : public trace::TraceSink {
 public:
  // `inner` must outlive this sink. A store-backed inner sink has its
  // block flushes told apart from plain buffered events.
  TimedSink(trace::TraceSink* inner, Tracer& tracer)
      : inner_(inner),
        store_(dynamic_cast<store::StoreFileSink*>(inner)),
        t_(tracer) {}

  void BeginRun(const trace::RunHeader& header) override {
    inner_->BeginRun(header);
  }
  void OnEvent(const trace::TraceEvent& event) override;
  void EndRun() override { inner_->EndRun(); }

 private:
  trace::TraceSink* inner_;
  store::StoreFileSink* store_;
  Tracer& t_;
};

// Wraps any factory's product and forwards every sim::Protocol virtual.
// Step is a span of the layer the wrapped protocol lives in; churn,
// round re-arm, shutdown and checkpoint save are spans of their own. The
// first call after a checkpoint cut closes it; SaveState runs inside it.
class TimedProtocol final : public sim::Protocol {
 public:
  TimedProtocol(std::unique_ptr<sim::Protocol> inner, Span step_span,
                Tracer& tracer)
      : inner_(std::move(inner)), step_span_(step_span), t_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  void Step() override;
  bool Finished() const override {
    t_.CloseDeferred();
    return inner_->Finished();
  }
  const sim::RunMetrics& metrics() const override {
    t_.CloseDeferred();
    return inner_->metrics();
  }
  void AttachTrace(const trace::TraceContext& context) override;
  std::span<const TagId> LearnedThisStep() const override {
    t_.CloseDeferred();
    return inner_->LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    t_.CloseDeferred();
    return inner_->InjectKnownId(id);
  }
  bool SupportsChurn() const override {
    t_.CloseDeferred();
    return inner_->SupportsChurn();
  }
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  std::size_t OpenPhyRecords() const override {
    t_.CloseDeferred();
    return inner_->OpenPhyRecords();
  }
  void Shutdown() override;
  bool SupportsCheckpoint() const override {
    t_.CloseDeferred();
    return inner_->SupportsCheckpoint();
  }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override {
    t_.CloseDeferred();
    return inner_->RestoreState(bytes);
  }

 private:
  std::unique_ptr<sim::Protocol> inner_;
  Span step_span_;
  Tracer& t_;  // const calls record spans too
  std::unique_ptr<TimedSink> sink_;
};

// FCAT assembled the way core::Fcat / core::FcatOnSignal assemble it (the
// phy takes rng.Split(), then the engine runs over the phy with the
// protocol's CollisionAwareConfig), except that the engine sees the phy
// through a TimedPhy.
template <class Phy, class PhyConfig>
class DecoratedFcat final : public sim::Protocol {
 public:
  DecoratedFcat(std::string name, std::span<const TagId> population,
                anc::Pcg32 rng, const PhyConfig& phy_config,
                const core::CollisionAwareConfig& engine_config,
                Tracer& tracer)
      : phy_(population, phy_config, rng.Split()),
        timed_(phy_, tracer),
        engine_(std::move(name), population, timed_, engine_config, rng) {}

  void Step() override { engine_.Step(); }
  bool Finished() const override { return engine_.Finished(); }
  std::string_view name() const override { return engine_.name(); }
  const sim::RunMetrics& metrics() const override { return engine_.metrics(); }
  std::span<const TagId> LearnedThisStep() const override {
    return engine_.LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return engine_.InjectKnownId(id);
  }
  void AttachTrace(const trace::TraceContext& context) override {
    engine_.AttachTrace(context);
  }
  std::size_t OpenPhyRecords() const override {
    return engine_.OpenPhyRecords();
  }
  void Shutdown() override { engine_.Shutdown(); }
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override { return engine_.ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return engine_.DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    return engine_.BeginInventoryRound(refresh);
  }

  // Same two-blob layout as core::Fcat, for phys that checkpoint.
  static constexpr bool kCheckpoints =
      requires(const Phy& p, std::string* s) { p.SaveState(s); };
  bool SupportsCheckpoint() const override { return kCheckpoints; }
  void SaveState(std::string* out) const override {
    if constexpr (kCheckpoints) {
      std::string blob;
      phy_.SaveState(&blob);
      ser::PutBytes(*out, blob);
      blob.clear();
      engine_.SaveEngineState(&blob);
      ser::PutBytes(*out, blob);
    }
  }
  bool RestoreState(std::string_view bytes) override {
    if constexpr (kCheckpoints) {
      ser::Reader r{bytes};
      ser::Reader phy_r{r.Bytes()};
      if (!r.ok || !phy_.RestoreState(phy_r) || !phy_r.AtEnd()) return false;
      ser::Reader eng_r{r.Bytes()};
      if (!r.ok || !engine_.RestoreEngineState(eng_r) || !eng_r.AtEnd()) {
        return false;
      }
      return r.AtEnd();
    }
    return false;
  }

 private:
  Phy phy_;
  TimedPhy timed_;
  core::CollisionAwareEngine engine_;
};

}  // namespace anc::perf
