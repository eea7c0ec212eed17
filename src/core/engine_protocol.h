// EngineProtocol<Phy> — the one adapter between the collision-aware
// engine and the experiment runner's sim::Protocol. It owns a phy and the
// engine running over it, and forwards every Protocol hook to the engine.
// FCAT and SCAT over IdealPhy (the paper's simulation model) and FCAT
// over SignalPhy (full MSK waveform simulation) are all constructions of
// this template; core/factories.h maps each protocol's options onto the
// phy and engine configurations.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/serialize.h"
#include "core/config.h"
#include "core/engine.h"
#include "sim/protocol.h"

namespace anc::core {

// Builds a layer between the engine and its phy that watches the phy
// calls (a test counting resolve requests, say). The layer must forward
// every call to `inner`, which outlives it. An empty decorator leaves the
// engine talking to the phy itself.
using PhyDecorator = std::function<std::unique_ptr<phy::PhyInterface>(
    phy::PhyInterface& inner)>;

template <class Phy>
class EngineProtocol : public sim::Protocol {
 public:
  using PhyConfig = typename Phy::Config;

  // The phy takes rng.Split() first; the engine runs on the rest.
  EngineProtocol(std::string name, std::span<const TagId> population,
                 anc::Pcg32 rng, const PhyConfig& phy_config,
                 const CollisionAwareConfig& config,
                 const PhyDecorator& decorate = {})
      : phy_(population, phy_config, rng.Split()),
        decorated_(decorate ? decorate(phy_) : nullptr),
        engine_(std::move(name), population, EnginePhy(), config, rng) {}

  void Step() override { engine_.Step(); }
  bool Finished() const override { return engine_.Finished(); }
  std::string_view name() const override { return engine_.name(); }
  const sim::RunMetrics& metrics() const override {
    return engine_.metrics();
  }
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

  // Checkpoint hooks, for phys that can save their record store: the phy
  // state and the engine state as two length-prefixed blobs. The options
  // (and the whole construction path) are rederived by the factory before
  // restore. Over any other phy these stay the unsupported defaults. Both
  // blobs are gathered as pieces first, so their lengths are known before
  // their bytes are copied into `out`, once.
  static constexpr bool kCheckpoints =
      requires(const Phy& p, ser::Pieces& out) { p.SaveState(out); };
  bool SupportsCheckpoint() const override { return kCheckpoints; }
  void SaveState(std::string* out) const override {
    if constexpr (kCheckpoints) {
      ser::Pieces phy;
      phy_.SaveState(phy);
      ser::Pieces engine;
      engine_.SaveEngineState(engine);
      out->reserve(out->size() + phy.size() + engine.size() + 20);
      ser::PutVarint(*out, phy.size());
      phy.AppendTo(*out);
      ser::PutVarint(*out, engine.size());
      engine.AppendTo(*out);
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

  const CollisionAwareEngine& engine() const { return engine_; }
  const Phy& phy() const { return phy_; }

 protected:
  // For assemblies that draw a stream of their own between the phy's and
  // the engine's (SCAT's estimation pre-step): the two streams arrive
  // split already.
  EngineProtocol(std::string name, std::span<const TagId> population,
                 anc::Pcg32 phy_rng, anc::Pcg32 engine_rng,
                 const PhyConfig& phy_config,
                 const CollisionAwareConfig& config,
                 const PhyDecorator& decorate)
      : phy_(population, phy_config, phy_rng),
        decorated_(decorate ? decorate(phy_) : nullptr),
        engine_(std::move(name), population, EnginePhy(), config,
                engine_rng) {}

 private:
  phy::PhyInterface& EnginePhy() {
    return decorated_ ? *decorated_ : static_cast<phy::PhyInterface&>(phy_);
  }

  Phy phy_;
  std::unique_ptr<phy::PhyInterface> decorated_;  // over phy_, if any
  CollisionAwareEngine engine_;
};

}  // namespace anc::core
