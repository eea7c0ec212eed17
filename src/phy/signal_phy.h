// Waveform-level phy: every report segment is synthesized as a real MSK
// waveform through a static per-tag channel, mixed sample-wise, and
// corrupted by AWGN at the reader. Collision records store the actual
// mixed buffers; resolution performs signal subtraction + demodulation +
// CRC exactly as Section II-B / IV-B describe.
//
// References for subtraction are *reader-side* observations: the noisy
// waveform captured in a tag's clean singleton slot, or — matching line 17
// of the paper's pseudo code (S := S + {ID', s'}) — the residual produced
// when the tag was itself recovered from another record. No genie channel
// knowledge is used.
//
// Performance architecture (the batched-API redesign):
//   * Per-tag transmit waveforms are cached after the first synthesis.
//     With zero CFO the channel rotation is slot-independent, so the
//     cached channel-applied waveform is bit-exact for every slot; with
//     CFO the unit MSK frame is cached and only the slot-phase rotation
//     is recomputed per transmission. Synthesis writes straight into the
//     cache slot, rotating in place.
//   * One MSK phase-walk table (signal/msk.h) per instance serves every
//     tag of the run: all frames walk the same few hundred phase
//     doubles, so cos/sin run once per distinct phase instead of once
//     per sample, with bit-identical output. The table is an instance
//     member, never shared, so instances stay thread-confined.
//   * Record waveforms live in a slab arena: fixed-stride slices of one
//     flat buffer, recycled through a free list on release. Record
//     metadata is a flat vector indexed by handle (handles are never
//     reused within a run — the tracker and fault ledger key on them).
//     Only a mixture the decoder may resolve (order <= max_mixture)
//     takes a slab: a larger one is still synthesized and noised, so the
//     RNG stream is unchanged, but no request for it can ever succeed,
//     so its samples are not kept.
//   * Mixing, noise and demodulation run over reusable scratch buffers;
//     after warm-up an observed slot performs no heap allocation.
//   * TryResolveBatch optionally fans requests out to a persistent worker
//     pool (demod_pool_threads). Each resolve is a pure function of the
//     record and the references frozen at batch entry, so workers compute
//     outcomes in parallel and the results are folded back *in request
//     order* — byte-identical traces at any pool size, the same
//     discipline as the runner's per-run merge.
//
// Note on lambda: with a truly static channel, direct subtraction can peel
// mixtures of any order until accumulated noise wins; lambda here is a
// decoder-capability cap (max_mixture), mirroring the paper's parameter
// lambda, with 0 meaning "let the signal processing decide".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/digest_index.h"
#include "common/rng.h"
#include "phy/phy.h"
#include "signal/anc_resolver.h"
#include "signal/channel.h"
#include "signal/msk.h"
#include "signal/waveform_codec.h"

namespace anc::phy {

struct SignalPhyConfig {
  int samples_per_bit = 8;
  int preamble_bits = 8;
  double snr_db = 20.0;        // reader front-end SNR for a unit-gain tag
  double min_gain = 0.6;       // per-tag channel attenuation range
  double max_gain = 1.4;
  unsigned max_mixture = 0;    // lambda cap; 0 = no cap (signal decides)
  anc::signal::SubtractionMode subtraction =
      anc::signal::SubtractionMode::kDirect;
  // Residual slot-synchronization error: each transmission starts up to
  // this many samples late, drawn uniformly per transmission. Section
  // II-B argues reader-driven synchronization keeps this near zero; the
  // jitter ablation quantifies what happens when it is not.
  unsigned max_timing_jitter_samples = 0;
  // Residual carrier-frequency offset per tag, uniform in [-cfo, +cfo]
  // rad/sample, fixed per tag for the run.
  double max_cfo_per_sample = 0.0;
  // Capture effect: attempt to demodulate a collision slot directly. When
  // one constituent dominates (high SIR), MSK phase-difference detection
  // locks onto it and the CRC validates — the reader learns that ID *now*
  // and the stored record needs one fewer later singleton. The paper's
  // model ignores capture; enabling it is a beyond-paper ablation
  // (bench_capture).
  bool enable_capture = false;
  // Intra-run demodulation worker pool for TryResolveBatch: 0 = resolve
  // on the calling thread (default). Any value produces byte-identical
  // results; the pool only changes wall-clock time.
  unsigned demod_pool_threads = 0;
};

class SignalPhy final : public PhyInterface {
 public:
  using Config = SignalPhyConfig;

  SignalPhy(std::span<const TagId> population, SignalPhyConfig config,
            anc::Pcg32 rng);
  ~SignalPhy() override;

  void ObserveBatch(const SlotBatch& batch,
                    std::span<SlotObservation> out) override;

  void TryResolveBatch(std::span<const ResolveRequest> requests,
                       std::span<std::optional<TagId>> out) override;

  // Closed records and mixtures above max_mixture. A request whose known
  // count leaves more than one constituent is still sent: capture can
  // pull the dominant one out of the residual.
  [[nodiscard]] bool RejectsResolve(RecordHandle record,
                                    std::size_t knowns) const override;

  void ReleaseRecord(RecordHandle record) override;

  [[nodiscard]] std::size_t OpenRecords() const override {
    return open_records_;
  }

  // Test hook: slabs held by open records.
  [[nodiscard]] std::size_t SlabsInUse() const {
    return slab_count_ - free_slabs_.size();
  }

  // Test hook: the reference waveform currently held for a tag (empty if
  // the reader has not received it cleanly yet).
  [[nodiscard]] const anc::signal::Buffer& ReferenceFor(
      std::uint32_t tag) const {
    return references_[tag];
  }

 private:
  static constexpr std::uint32_t kNoSlab = ~std::uint32_t{0};

  struct Record {
    std::uint32_t slab = kNoSlab;       // slice of slab_pool_, if kept
    std::uint32_t length = 0;           // valid samples in the slab
    std::uint32_t mixture_order = 0;    // ground truth, only for the cap
    bool open = false;
  };

  // Outcome of the parallelizable part of one resolve request; the
  // sequential fold turns it into an ID and a stored reference.
  struct ResolveOutcome {
    bool attempted = false;
    anc::signal::ResolveResult result;
  };

  class DemodPool;

  // The cached waveform for `tag`: channel-applied (slot-invariant) when
  // the tag has zero CFO, the unit MSK frame otherwise.
  std::span<const anc::signal::Sample> CachedWaveform(std::uint32_t tag);
  // The as-received waveform of one transmission, as a view either into
  // the cache or into synth_pool_[pool_index] (CFO path).
  std::span<const anc::signal::Sample> ReceivedWaveform(
      std::uint32_t tag, std::uint64_t slot_index, std::size_t pool_index);

  void ObserveOne(std::uint64_t slot_index,
                  std::span<const std::uint32_t> participants,
                  SlotObservation* obs);
  // Thread-safe (const, touches only the request, the slab pool and the
  // reference store — all frozen during a batch).
  void ComputeResolve(const ResolveRequest& request, ResolveOutcome* outcome,
                      std::vector<std::span<const anc::signal::Sample>>*
                          ref_scratch) const;

  // Whether the modeled decoder may resolve a mixture of this order.
  [[nodiscard]] bool WithinCap(std::uint32_t mixture_order) const {
    return config_.max_mixture == 0 || mixture_order <= config_.max_mixture;
  }
  std::uint32_t AcquireSlab();
  [[nodiscard]] std::span<const anc::signal::Sample> MixedOf(
      const Record& record) const {
    return std::span<const anc::signal::Sample>(
        slab_pool_.data() +
            static_cast<std::size_t>(record.slab) * slab_samples_,
        record.length);
  }

  std::span<const TagId> population_;
  DigestIndex digest_to_index_;  // resolved ID -> tag
  SignalPhyConfig config_;
  anc::Pcg32 rng_;
  anc::signal::WaveformCodec codec_;
  anc::signal::MskModulator modulator_;  // phase-walk table for the run
  anc::signal::AncResolver resolver_;
  std::vector<anc::signal::ChannelParams> channels_;
  std::vector<anc::signal::Buffer> references_;
  std::vector<Record> records_;
  std::size_t open_records_ = 0;
  double noise_power_ = 0.0;

  // Waveform cache (see header comment).
  std::size_t frame_samples_ = 0;
  std::size_t slab_samples_ = 0;
  anc::signal::Buffer wave_cache_;   // n_tags x frame_samples_, lazy
  std::vector<std::uint8_t> wave_cached_;

  // Record slab arena.
  anc::signal::Buffer slab_pool_;
  std::vector<std::uint32_t> free_slabs_;
  std::uint32_t slab_count_ = 0;

  // Per-slot scratch (reused; no per-slot allocation after warm-up).
  std::vector<std::span<const anc::signal::Sample>> mix_views_;
  std::vector<std::size_t> mix_offsets_;
  std::vector<anc::signal::Buffer> synth_pool_;  // CFO-path synthesis
  anc::signal::Buffer mix_scratch_;
  std::vector<std::uint8_t> bits_scratch_;

  // Resolve scratch: outcomes plus per-thread reference-view buffers
  // (index 0 = calling thread, 1.. = pool workers).
  std::vector<ResolveOutcome> outcomes_;
  std::vector<std::vector<std::span<const anc::signal::Sample>>>
      ref_scratch_;
  std::unique_ptr<DemodPool> pool_;
};

}  // namespace anc::phy
