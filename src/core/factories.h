// Convenience factories wiring each protocol into the experiment runner.
// These are what the bench binaries, examples and integration tests use.
//
// One factory per column of the paper's Table I — FCAT-lambda and SCAT
// (the contribution, Sections IV-V) against the prior art re-implemented
// from the papers the evaluation cites: DFSA/EDFSA (framed ALOHA with
// backlog estimation), ABS/AQS (binary tree splitting), plus slotted
// ALOHA, fixed-frame FSA and CRDSA (the Section III-C satellite scheme,
// built as IRSA with Λ(x) = x²) as extra baselines. Each returned factory
// is a pure function of its captured options: it builds a fresh protocol
// instance per run and is safe to invoke concurrently from
// RunExperiment's worker threads.
//
// FCAT — Framed Collision-Aware Tag identification (Section V), the
// paper's main protocol — and SCAT (Section IV), its per-slot-advertised
// precursor, are both the shared engine bundled with a phy
// (core/engine_protocol.h): FCAT and SCAT over IdealPhy (the paper's
// simulation model), and FCAT over SignalPhy (full MSK waveform
// simulation). FCAT-lambda in the paper's tables is FcatOptions::lambda =
// lambda. FCAT removes SCAT's three inefficiencies (Section V-A): it
// advertises the report probability once per frame instead of per slot,
// acknowledges IDs resolved from collision records by their 23-bit slot
// index instead of the full 96-bit ID, and replaces the estimation
// pre-step with the Eq. 12 embedded estimator fed by each frame's
// collision count. The probability rides the advertisement as an
// l_bits-quantized threshold (tags compare H(ID|i) <= floor(p_i 2^l),
// Section IV-B); omega = 0 in the options selects the optimal
// (lambda!)^{1/lambda} of Section IV-D.
#pragma once

#include <memory>
#include <span>

#include "core/engine_protocol.h"
#include "phy/ideal_phy.h"
#include "phy/signal_phy.h"
#include "protocols/abs.h"
#include "protocols/aloha.h"
#include "protocols/aqs.h"
#include "protocols/dfsa.h"
#include "protocols/edfsa.h"
#include "protocols/fsa.h"
#include "protocols/irsa.h"
#include "protocols/mpr.h"
#include "protocols/seeded.h"
#include "sim/runner.h"

namespace anc::core {

struct FcatOptions {
  unsigned lambda = 2;
  std::uint64_t frame_size = 30;
  double omega = 0.0;  // 0 => (lambda!)^{1/lambda}
  int l_bits = 24;
  bool hash_mode = false;
  bool oracle_termination = false;
  int empty_probe_threshold = 8;
  double initial_estimate = 0.0;
  std::size_t estimator_window = 48;  // 0 = all-frame average
  // Channel imperfections (Section IV-E ablations). Acknowledgement loss
  // is modeled by fault.ack_loss (Gilbert-Elliott; error_good = p with
  // p_good_to_bad = 0 reproduces flat Bernoulli loss).
  double resolution_success_prob = 1.0;
  double singleton_corrupt_prob = 0.0;
  // Fault injection (src/fault). Default-constructed = everything off; a
  // labelled config suffixes the protocol name ("FCAT-2@chaos") so trace
  // replay can rebuild the fault schedule from the run header.
  fault::FaultConfig fault{};
  phy::TimingModel timing{};
};

struct ScatOptions {
  unsigned lambda = 2;
  double omega = 0.0;
  int l_bits = 24;
  bool hash_mode = false;
  bool oracle_termination = false;
  int empty_probe_threshold = 8;
  double resolution_success_prob = 1.0;
  double singleton_corrupt_prob = 0.0;
  fault::FaultConfig fault{};
  // Run the Section IV-C estimation pre-step explicitly (Kodialam-style
  // zero estimator) instead of assuming a free, perfect estimate of N.
  // Its air time and slot counts are merged into the protocol metrics.
  bool estimation_prestep = false;
  int prestep_rounds = 16;
  phy::TimingModel timing{};
};

struct FcatSignalOptions {
  unsigned lambda = 2;  // planning parameter (omega) and decoder cap
  std::uint64_t frame_size = 30;
  double omega = 0.0;
  int l_bits = 24;
  bool oracle_termination = false;
  int empty_probe_threshold = 8;
  fault::FaultConfig fault{};
  phy::SignalPhyConfig signal{};
  phy::TimingModel timing{};
};

// Single FCAT instances, for callers that drive one run by hand and
// inspect the engine or the phy afterwards.
std::unique_ptr<EngineProtocol<phy::IdealPhy>> MakeFcat(
    std::span<const TagId> population, anc::Pcg32 rng,
    const FcatOptions& options);
std::unique_ptr<EngineProtocol<phy::SignalPhy>> MakeFcatSignal(
    std::span<const TagId> population, anc::Pcg32 rng,
    const FcatSignalOptions& options);

sim::ProtocolFactory MakeFcatFactory(FcatOptions options);
sim::ProtocolFactory MakeScatFactory(ScatOptions options);
sim::ProtocolFactory MakeFcatSignalFactory(FcatSignalOptions options);

sim::ProtocolFactory MakeDfsaFactory(phy::TimingModel timing = {},
                                     protocols::DfsaConfig config = {});
sim::ProtocolFactory MakeEdfsaFactory(phy::TimingModel timing = {},
                                      protocols::EdfsaConfig config = {});
sim::ProtocolFactory MakeAbsFactory(phy::TimingModel timing = {},
                                    protocols::AbsConfig config = {});
sim::ProtocolFactory MakeAqsFactory(phy::TimingModel timing = {},
                                    protocols::AqsConfig config = {});
sim::ProtocolFactory MakeAlohaFactory(phy::TimingModel timing = {});
// CRDSA-2: IRSA with Λ(x) = x² at offered load G = 0.65.
sim::ProtocolFactory MakeCrdsaFactory(phy::TimingModel timing = {});
sim::ProtocolFactory MakeFsaFactory(phy::TimingModel timing = {},
                                    protocols::FsaConfig config = {});

// The coded-ALOHA family (IRSA / seeded pseudo-random / MPR readers) —
// see DESIGN.md "Protocol family".
sim::ProtocolFactory MakeIrsaFactory(phy::TimingModel timing = {},
                                     protocols::IrsaConfig config = {});
sim::ProtocolFactory MakeSeededFactory(phy::TimingModel timing = {},
                                       protocols::SeededConfig config = {});
sim::ProtocolFactory MakeMprFactory(phy::TimingModel timing = {},
                                    protocols::MprConfig config = {});
sim::ProtocolFactory MakePerfectFactory(phy::TimingModel timing = {},
                                        protocols::PerfectConfig config = {});

}  // namespace anc::core
