#include "phy/signal_phy.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "signal/mixer.h"

namespace anc::phy {

using anc::signal::Buffer;
using anc::signal::Sample;

// Persistent worker pool for TryResolveBatch. Workers pull task indices
// from a shared atomic counter; the Run() caller blocks until every task
// of the current generation completed, which (through the mutex handshake)
// also publishes the workers' writes back to the caller before it folds
// the outcomes in request order.
class SignalPhy::DemodPool {
 public:
  explicit DemodPool(unsigned threads) : threads_(threads) {
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { WorkerMain(w); });
    }
  }

  ~DemodPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  unsigned threads() const { return threads_; }

  // fn(task_index, worker_index) with worker_index in [1, threads]; the
  // calling thread only waits (worker slot 0 stays the sequential path's).
  void Run(std::size_t n_tasks,
           const std::function<void(std::size_t, unsigned)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    n_tasks_ = n_tasks;
    next_.store(0, std::memory_order_relaxed);
    done_workers_ = 0;
    ++generation_;
    cv_work_.notify_all();
    cv_done_.wait(lock, [this] { return done_workers_ == threads_; });
    fn_ = nullptr;
  }

 private:
  void WorkerMain(unsigned worker) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(std::size_t, unsigned)>* fn = nullptr;
      std::size_t n_tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        fn = fn_;
        n_tasks = n_tasks_;
      }
      for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_tasks) break;
        (*fn)(i, worker + 1);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_workers_;
      }
      cv_done_.notify_one();
    }
  }

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t, unsigned)>* fn_ = nullptr;
  std::size_t n_tasks_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  unsigned done_workers_ = 0;
  bool stop_ = false;
};

SignalPhy::SignalPhy(std::span<const TagId> population,
                     SignalPhyConfig config, anc::Pcg32 rng)
    : population_(population),
      digest_to_index_(IndexByDigest(population)),
      config_(config),
      rng_(rng),
      codec_(config.samples_per_bit, config.preamble_bits),
      modulator_(codec_.modulation()),
      resolver_(config.subtraction, config.samples_per_bit),
      references_(population.size()) {
  channels_.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    auto channel =
        anc::signal::RandomChannel(rng_, config_.min_gain, config_.max_gain);
    if (config_.max_cfo_per_sample > 0.0) {
      channel.cfo_per_sample =
          config_.max_cfo_per_sample * (2.0 * rng_.UniformDouble() - 1.0);
    }
    channels_.push_back(channel);
  }
  // Unit-amplitude MSK has power 1; the SNR is referenced to a unit-gain
  // tag at the reader front-end.
  noise_power_ = anc::signal::NoisePowerForSnrDb(1.0, config_.snr_db);

  frame_samples_ = codec_.frame_bits() *
                   static_cast<std::size_t>(config_.samples_per_bit);
  slab_samples_ = frame_samples_ + config_.max_timing_jitter_samples;
  wave_cache_.resize(population.size() * frame_samples_);
  wave_cached_.assign(population.size(), 0);
  ref_scratch_.resize(1);
}

SignalPhy::~SignalPhy() = default;

std::span<const Sample> SignalPhy::CachedWaveform(std::uint32_t tag) {
  const std::span<Sample> slot(wave_cache_.data() + frame_samples_ * tag,
                               frame_samples_);
  if (!wave_cached_[tag]) {
    modulator_.ModulateInto(codec_.FrameBits(population_[tag]), slot);
    if (channels_[tag].cfo_per_sample == 0.0) {
      // Slot-invariant rotation: cache the as-received waveform outright
      // (bit-identical to recomputing it per slot, since the slot phase
      // advance is cfo * slot * samples = 0).
      anc::signal::ApplyChannelInto(slot, channels_[tag], slot);
    }
    wave_cached_[tag] = 1;
  }
  return slot;
}

std::span<const Sample> SignalPhy::ReceivedWaveform(
    std::uint32_t tag, std::uint64_t slot_index, std::size_t pool_index) {
  const std::span<const Sample> cached = CachedWaveform(tag);
  if (channels_[tag].cfo_per_sample == 0.0) return cached;
  // A residual carrier offset keeps rotating between slots: the phase a
  // waveform arrives with depends on *when* it is transmitted, so a
  // reference captured in one slot is rotated relative to the same tag's
  // contribution to a later mixed signal. This is what makes CFO hurt
  // subtraction even though the per-slot channel is otherwise static.
  anc::signal::ChannelParams channel = channels_[tag];
  channel.phase += channel.cfo_per_sample *
                   static_cast<double>(slot_index) *
                   static_cast<double>(frame_samples_);
  if (synth_pool_.size() <= pool_index) synth_pool_.resize(pool_index + 1);
  Buffer& synth = synth_pool_[pool_index];
  synth.resize(cached.size());
  anc::signal::ApplyChannelInto(cached, channel, synth);
  return synth;
}

std::uint32_t SignalPhy::AcquireSlab() {
  if (!free_slabs_.empty()) {
    const std::uint32_t slab = free_slabs_.back();
    free_slabs_.pop_back();
    return slab;
  }
  slab_pool_.resize(static_cast<std::size_t>(slab_count_ + 1) *
                    slab_samples_);
  return slab_count_++;
}

void SignalPhy::ObserveOne(std::uint64_t slot_index,
                           std::span<const std::uint32_t> participants,
                           SlotObservation* obs) {
  if (participants.empty()) {
    obs->type = SlotType::kEmpty;
    return;
  }

  mix_views_.clear();
  mix_offsets_.clear();
  for (std::size_t j = 0; j < participants.size(); ++j) {
    mix_views_.push_back(
        ReceivedWaveform(participants[j], slot_index, j));
    // The receiver time-aligns to a lone signal; only the *relative*
    // misalignment between collided constituents survives.
    mix_offsets_.push_back(
        (config_.max_timing_jitter_samples == 0 || participants.size() == 1)
            ? 0
            : rng_.UniformBelow(config_.max_timing_jitter_samples + 1));
  }
  anc::signal::MixInto(mix_views_, mix_offsets_, &mix_scratch_);
  anc::signal::AddAwgn(mix_scratch_, noise_power_, rng_);

  obs->type = participants.size() == 1 ? SlotType::kSingleton
                                       : SlotType::kCollision;

  if (participants.size() == 1) {
    if (auto id = codec_.DecodeInto(mix_scratch_, &bits_scratch_)) {
      obs->singleton_id = *id;
      // Keep the cleanest reception seen so far as the reference.
      references_[participants[0]].assign(mix_scratch_.begin(),
                                          mix_scratch_.end());
      return;
    }
  }

  if (config_.enable_capture && participants.size() > 1) {
    // Capture attempt on the raw mixture: succeeds only when the CRC of
    // the dominant constituent survives the interference.
    if (auto id = codec_.DecodeInto(mix_scratch_, &bits_scratch_)) {
      obs->singleton_id = *id;
    }
  }

  Record record;
  record.length = static_cast<std::uint32_t>(mix_scratch_.size());
  record.mixture_order = static_cast<std::uint32_t>(participants.size());
  record.open = true;
  if (WithinCap(record.mixture_order)) {
    record.slab = AcquireSlab();
    std::copy(mix_scratch_.begin(), mix_scratch_.end(),
              slab_pool_.data() +
                  static_cast<std::size_t>(record.slab) * slab_samples_);
  }
  records_.push_back(record);
  ++open_records_;
  obs->record =
      RecordHandle(static_cast<std::uint32_t>(records_.size() - 1));
}

void SignalPhy::ObserveBatch(const SlotBatch& batch,
                             std::span<SlotObservation> out) {
  // Sequential over slots: synthesis consumes the jitter/noise RNG stream
  // in slot order (the determinism contract in phy.h).
  for (std::size_t i = 0; i < batch.slots(); ++i) {
    out[i] = SlotObservation{};
    ObserveOne(batch.slot_indices[i], batch.ParticipantsOf(i), &out[i]);
  }
}

bool SignalPhy::RejectsResolve(RecordHandle handle, std::size_t) const {
  if (handle.index() >= records_.size()) return true;
  const Record& record = records_[handle.index()];
  // Above the cap is beyond the modeled ANC decoder capability (and the
  // record holds no samples).
  return !record.open || !WithinCap(record.mixture_order);
}

void SignalPhy::ComputeResolve(
    const ResolveRequest& request, ResolveOutcome* outcome,
    std::vector<std::span<const Sample>>* ref_scratch) const {
  outcome->attempted = false;
  outcome->result = anc::signal::ResolveResult{};
  if (RejectsResolve(request.record, request.known_participants.size())) {
    return;
  }
  const Record& record = records_[request.record.index()];

  ref_scratch->clear();
  for (std::uint32_t tag : request.known_participants) {
    if (references_[tag].empty()) return;
    ref_scratch->emplace_back(references_[tag]);
  }

  outcome->result =
      resolver_.ResolveLast(MixedOf(record),
                            std::span<const std::span<const Sample>>(
                                ref_scratch->data(), ref_scratch->size()),
                            codec_.frame_bits());
  outcome->attempted = true;
}

void SignalPhy::TryResolveBatch(std::span<const ResolveRequest> requests,
                                std::span<std::optional<TagId>> out) {
  // Phase 1 — the expensive, side-effect-free part (subtraction +
  // demodulation), parallelizable because each request reads only the
  // record slab and references frozen at batch entry: a tag resolved by
  // one request of this batch can never appear in another request's known
  // set (it was unknown when the batch was built).
  outcomes_.resize(requests.size());
  const bool use_pool =
      config_.demod_pool_threads > 0 && requests.size() > 1;
  if (use_pool) {
    if (!pool_) {
      pool_ = std::make_unique<DemodPool>(config_.demod_pool_threads);
      ref_scratch_.resize(1 + config_.demod_pool_threads);
    }
    pool_->Run(requests.size(), [this, &requests](std::size_t i,
                                                  unsigned worker) {
      ComputeResolve(requests[i], &outcomes_[i], &ref_scratch_[worker]);
    });
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ComputeResolve(requests[i], &outcomes_[i], &ref_scratch_[0]);
    }
  }

  // Phase 2 — fold in request order: CRC validation, bookkeeping rejects,
  // and the reference-store side effect happen exactly as the sequential
  // semantics dictate, so any pool size produces identical results.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out[i] = std::nullopt;
    ResolveOutcome& outcome = outcomes_[i];
    if (!outcome.attempted || !outcome.result.demodulated) continue;
    const auto id = codec_.DecodeBits(outcome.result.bits);
    if (!id) continue;

    // Reject pathological decodes of an already-known constituent (the
    // CRC makes this astronomically unlikely, but it would corrupt
    // bookkeeping).
    bool known_constituent = false;
    for (std::uint32_t tag : requests[i].known_participants) {
      if (population_[tag] == *id) {
        known_constituent = true;
        break;
      }
    }
    if (known_constituent) continue;

    // Locate the resolved tag and keep its extracted signal as a
    // reference for further cascade resolution. Population digests are
    // distinct, so a hit naming another ID means *id is not a tag.
    const std::uint32_t index = digest_to_index_.Find(id->Digest());
    if (index == DigestIndex::kNone || population_[index] != *id) {
      continue;  // noise forged a CRC
    }
    if (references_[index].empty()) {
      references_[index] = std::move(outcome.result.residual);
    }
    out[i] = id;
  }
}

void SignalPhy::ReleaseRecord(RecordHandle handle) {
  if (handle.index() >= records_.size()) return;
  Record& record = records_[handle.index()];
  if (record.open) {
    record.open = false;
    if (record.slab != kNoSlab) free_slabs_.push_back(record.slab);
    record.slab = kNoSlab;
    --open_records_;
  }
}

}  // namespace anc::phy
