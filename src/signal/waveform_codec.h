// Bit-level framing of a tag report: preamble + 96-bit ID (payload + CRC).
// Bridges TagId <-> MSK waveform for the waveform-level phy.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/tag_id.h"
#include "signal/complex_buffer.h"
#include "signal/msk.h"

namespace anc::signal {

class WaveformCodec {
 public:
  // `preamble_bits` alternating bits precede the ID; the demodulator's
  // weak first bit lands in the preamble, and a preamble mismatch marks a
  // corrupted reception before the CRC is even checked.
  explicit WaveformCodec(int samples_per_bit = 8, int preamble_bits = 8);

  // Full over-the-air bit frame for an ID.
  [[nodiscard]] std::vector<std::uint8_t> FrameBits(const TagId& id) const;

  // Unit-amplitude transmit waveform for an ID. Builds a throwaway
  // phase-walk table; a caller that encodes many IDs modulates
  // FrameBits() through its own MskModulator(modulation()) instead.
  [[nodiscard]] Buffer Encode(const TagId& id) const;

  // The modulator parameters Encode uses.
  const MskParams& modulation() const { return modulation_; }

  // Demodulates a received waveform; returns the ID when the preamble
  // matches and the CRC validates, nullopt otherwise (collision or noise).
  [[nodiscard]] std::optional<TagId> Decode(
      std::span<const Sample> received) const;

  // Allocation-free variant: demodulates through `bits_scratch` (cleared
  // and refilled), for hot loops that decode every slot.
  [[nodiscard]] std::optional<TagId> DecodeInto(
      std::span<const Sample> received,
      std::vector<std::uint8_t>* bits_scratch) const;

  // Decodes pre-demodulated bits (used by the ANC resolver path).
  [[nodiscard]] std::optional<TagId> DecodeBits(
      std::span<const std::uint8_t> bits) const;

  std::size_t frame_bits() const {
    return static_cast<std::size_t>(preamble_bits_) + TagId::kTotalBits;
  }
  int samples_per_bit() const { return modulation_.samples_per_bit; }

 private:
  int preamble_bits_;
  MskParams modulation_;
  MskDemodulator demodulator_;
};

}  // namespace anc::signal
