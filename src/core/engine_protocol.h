// EngineProtocol<Phy> — the one adapter between the collision-aware
// engine and the experiment runner's sim::Protocol. It is the engine
// (every Protocol hook is the engine's own) running over a phy it owns,
// plus the checkpoint hooks that save phy and engine together. FCAT and
// SCAT over IdealPhy (the paper's simulation model) and FCAT over
// SignalPhy (full MSK waveform simulation) are all constructions of this
// template; core/factories.h maps each protocol's options onto the phy
// and engine configurations.
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

// The phy (and the decorating layer over it, if any) as a base class of
// EngineProtocol listed before the engine: bases are built in order and
// destroyed in reverse, so the phy exists before the engine that holds a
// reference to it and outlives it.
template <class Phy>
class PhyHolder {
 protected:
  PhyHolder(std::span<const TagId> population,
            const typename Phy::Config& config, anc::Pcg32 rng,
            const PhyDecorator& decorate)
      : held_phy_(population, config, rng),
        decorated_(decorate ? decorate(held_phy_) : nullptr) {}

  phy::PhyInterface& EnginePhy() {
    return decorated_ ? *decorated_
                      : static_cast<phy::PhyInterface&>(held_phy_);
  }

  Phy held_phy_;
  std::unique_ptr<phy::PhyInterface> decorated_;  // over held_phy_, if any
};

template <class Phy>
class EngineProtocol : private PhyHolder<Phy>, public CollisionAwareEngine {
  using Holder = PhyHolder<Phy>;

 public:
  using PhyConfig = typename Phy::Config;

  // The phy takes rng.Split() first; the engine runs on the rest.
  EngineProtocol(std::string name, std::span<const TagId> population,
                 anc::Pcg32 rng, const PhyConfig& phy_config,
                 const CollisionAwareConfig& config,
                 const PhyDecorator& decorate = {})
      : Holder(population, phy_config, rng.Split(), decorate),
        CollisionAwareEngine(std::move(name), population, Holder::EnginePhy(),
                             config, rng) {}

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
      this->held_phy_.SaveState(phy);
      ser::Pieces engine;
      SaveEngineState(engine);
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
      if (!r.ok || !this->held_phy_.RestoreState(phy_r) || !phy_r.AtEnd()) {
        return false;
      }
      ser::Reader eng_r{r.Bytes()};
      if (!r.ok || !RestoreEngineState(eng_r) || !eng_r.AtEnd()) return false;
      return r.AtEnd();
    }
    return false;
  }

  const Phy& phy() const { return this->held_phy_; }

 protected:
  // For assemblies that draw a stream of their own between the phy's and
  // the engine's (SCAT's estimation pre-step): the two streams arrive
  // split already.
  EngineProtocol(std::string name, std::span<const TagId> population,
                 anc::Pcg32 phy_rng, anc::Pcg32 engine_rng,
                 const PhyConfig& phy_config,
                 const CollisionAwareConfig& config,
                 const PhyDecorator& decorate)
      : Holder(population, phy_config, phy_rng, decorate),
        CollisionAwareEngine(std::move(name), population, Holder::EnginePhy(),
                             config, engine_rng) {}
};

}  // namespace anc::core
