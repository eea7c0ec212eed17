#include "core/factories.h"

#include <algorithm>
#include <string>

#include "estimate/zero_estimator.h"

namespace anc::core {
namespace {

CollisionAwareConfig EngineConfig(const FcatOptions& o) {
  CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = o.frame_size;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = false;
  c.ack_with_slot_index = true;
  c.knows_true_n = false;
  c.initial_estimate = o.initial_estimate;
  c.estimator_window = o.estimator_window;
  c.hash_mode = o.hash_mode;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

CollisionAwareConfig EngineConfig(const ScatOptions& o) {
  CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = 1;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = true;
  c.ack_with_slot_index = false;  // SCAT acknowledges with full IDs
  c.knows_true_n = true;          // Section IV-C's pre-step estimate
  c.hash_mode = o.hash_mode;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

CollisionAwareConfig EngineConfig(const FcatSignalOptions& o) {
  CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = o.frame_size;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = false;
  c.ack_with_slot_index = true;
  c.knows_true_n = false;
  c.hash_mode = false;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

// "@label" marks a faulted run in the protocol name; trace_inspect's
// replay factory parses the suffix back into the matching fault profile.
std::string FaultSuffix(const fault::FaultConfig& f) {
  return f.label.empty() ? std::string() : "@" + f.label;
}

// SCAT is the shared adapter plus the Section IV-C estimation pre-step,
// which draws its own rng stream between the phy's and the engine's. The
// pre-step runs at construction from the same seed, so its metrics are
// rederived on restore, never serialized.
class Scat final : public EngineProtocol<phy::IdealPhy> {
 public:
  Scat(std::span<const TagId> population, anc::Pcg32 rng,
       const ScatOptions& options, const PhyDecorator& decorate)
      : Scat(population, options, Assemble(population, rng, options),
             decorate) {}

  const sim::RunMetrics& metrics() const override {
    merged_ = EngineProtocol::metrics();
    merged_.empty_slots += prestep_.empty_slots;
    merged_.singleton_slots += prestep_.singleton_slots;
    merged_.collision_slots += prestep_.collision_slots;
    merged_.elapsed_seconds += prestep_.elapsed_seconds;
    return merged_;
  }

 private:
  struct Assembly {
    anc::Pcg32 phy_rng;
    anc::Pcg32 engine_rng;
    CollisionAwareConfig config;
    sim::RunMetrics prestep;  // zero when the pre-step is off
  };

  static Assembly Assemble(std::span<const TagId> population,
                           anc::Pcg32 rng, const ScatOptions& options) {
    Assembly a;
    a.phy_rng = rng.Split();
    a.config = EngineConfig(options);
    if (options.estimation_prestep) {
      estimate::ZeroEstimatorConfig est;
      est.rounds = options.prestep_rounds;
      anc::Pcg32 est_rng = rng.Split();
      const auto run =
          estimate::RunZeroEstimator(population.size(), est, est_rng);
      a.config.assumed_total = std::max(run.estimate, 1.0);
      a.prestep.empty_slots = run.empty_slots;
      a.prestep.singleton_slots = run.singleton_slots;
      a.prestep.collision_slots = run.collision_slots;
      // Estimation slots only need an empty/non-empty decision, but we
      // charge full report-segment air time: tags transmit their IDs as
      // usual.
      a.prestep.elapsed_seconds = static_cast<double>(run.TotalSlots()) *
                                  options.timing.SlotSeconds();
    }
    a.engine_rng = rng;
    return a;
  }

  Scat(std::span<const TagId> population, const ScatOptions& options,
       const Assembly& a, const PhyDecorator& decorate)
      : EngineProtocol("SCAT-" + std::to_string(options.lambda) +
                           FaultSuffix(options.fault),
                       population, a.phy_rng, a.engine_rng,
                       {options.lambda, options.resolution_success_prob,
                        options.singleton_corrupt_prob},
                       a.config, decorate),
        prestep_(a.prestep) {}

  sim::RunMetrics prestep_;
  mutable sim::RunMetrics merged_;
};

}  // namespace

std::unique_ptr<EngineProtocol<phy::IdealPhy>> MakeFcat(
    std::span<const TagId> population, anc::Pcg32 rng,
    const FcatOptions& options, const PhyDecorator& decorate) {
  return std::make_unique<EngineProtocol<phy::IdealPhy>>(
      "FCAT-" + std::to_string(options.lambda) + FaultSuffix(options.fault),
      population, rng,
      phy::IdealPhyConfig{options.lambda, options.resolution_success_prob,
                          options.singleton_corrupt_prob},
      EngineConfig(options), decorate);
}

std::unique_ptr<EngineProtocol<phy::SignalPhy>> MakeFcatSignal(
    std::span<const TagId> population, anc::Pcg32 rng,
    const FcatSignalOptions& options, const PhyDecorator& decorate) {
  phy::SignalPhyConfig signal = options.signal;
  if (signal.max_mixture == 0) signal.max_mixture = options.lambda;
  return std::make_unique<EngineProtocol<phy::SignalPhy>>(
      "FCAT-" + std::to_string(options.lambda) + "-signal" +
          FaultSuffix(options.fault),
      population, rng, signal, EngineConfig(options), decorate);
}

sim::ProtocolFactory MakeFcatFactory(FcatOptions options,
                                     PhyDecorator decorate) {
  return [options, decorate](std::span<const TagId> population,
                             anc::Pcg32 rng) {
    return MakeFcat(population, rng, options, decorate);
  };
}

sim::ProtocolFactory MakeScatFactory(ScatOptions options,
                                     PhyDecorator decorate) {
  return [options, decorate](std::span<const TagId> population,
                             anc::Pcg32 rng) {
    return std::make_unique<Scat>(population, rng, options, decorate);
  };
}

sim::ProtocolFactory MakeFcatSignalFactory(FcatSignalOptions options,
                                           PhyDecorator decorate) {
  return [options, decorate](std::span<const TagId> population,
                             anc::Pcg32 rng) {
    return MakeFcatSignal(population, rng, options, decorate);
  };
}

sim::ProtocolFactory MakeDfsaFactory(phy::TimingModel timing,
                                     protocols::DfsaConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::Dfsa>(population, rng, timing,
                                             config);
  };
}

sim::ProtocolFactory MakeEdfsaFactory(phy::TimingModel timing,
                                      protocols::EdfsaConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::Edfsa>(population, rng, timing,
                                              config);
  };
}

sim::ProtocolFactory MakeAbsFactory(phy::TimingModel timing,
                                    protocols::AbsConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::Abs>(population, rng, timing, config);
  };
}

sim::ProtocolFactory MakeAqsFactory(phy::TimingModel timing,
                                    protocols::AqsConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::Aqs>(population, rng, timing, config);
  };
}

sim::ProtocolFactory MakeAlohaFactory(phy::TimingModel timing) {
  return [timing](std::span<const TagId> population, anc::Pcg32 rng) {
    return std::make_unique<protocols::SlottedAloha>(population, rng,
                                                     timing);
  };
}

sim::ProtocolFactory MakeCrdsaFactory(phy::TimingModel timing) {
  protocols::IrsaConfig config;
  config.degrees = protocols::DegreeDistribution::Crdsa2();
  config.target_load = 0.65;
  return MakeIrsaFactory(timing, config);
}

sim::ProtocolFactory MakeFsaFactory(phy::TimingModel timing,
                                    protocols::FsaConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::FramedSlottedAloha>(population, rng,
                                                           timing, config);
  };
}

sim::ProtocolFactory MakeIrsaFactory(phy::TimingModel timing,
                                     protocols::IrsaConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::Irsa>(population, rng, timing,
                                             config);
  };
}

sim::ProtocolFactory MakeSeededFactory(phy::TimingModel timing,
                                       std::size_t store_capacity) {
  protocols::IrsaConfig config;
  config.seeded_store_capacity = store_capacity;
  return MakeIrsaFactory(timing, config);
}

sim::ProtocolFactory MakeMprFactory(phy::TimingModel timing,
                                    protocols::MprConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::Mpr>(population, rng, timing, config);
  };
}

sim::ProtocolFactory MakePerfectFactory(phy::TimingModel timing,
                                        protocols::PerfectConfig config) {
  return [timing, config](std::span<const TagId> population,
                          anc::Pcg32 rng) {
    return std::make_unique<protocols::PerfectIdentification>(
        population, rng, timing, config);
  };
}

}  // namespace anc::core
