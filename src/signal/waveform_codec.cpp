#include "signal/waveform_codec.h"

namespace anc::signal {

WaveformCodec::WaveformCodec(int samples_per_bit, int preamble_bits)
    : preamble_bits_(preamble_bits),
      modulation_{samples_per_bit, 1.0, 0.0},
      demodulator_(samples_per_bit) {}

std::vector<std::uint8_t> WaveformCodec::FrameBits(const TagId& id) const {
  std::vector<std::uint8_t> bits;
  bits.reserve(frame_bits());
  for (int i = 0; i < preamble_bits_; ++i) {
    bits.push_back(static_cast<std::uint8_t>(i % 2 == 0 ? 1 : 0));
  }
  const auto id_bits = id.ToBits();
  bits.insert(bits.end(), id_bits.begin(), id_bits.end());
  return bits;
}

Buffer WaveformCodec::Encode(const TagId& id) const {
  return MskModulator(modulation_).Modulate(FrameBits(id));
}

std::optional<TagId> WaveformCodec::Decode(
    std::span<const Sample> received) const {
  std::vector<std::uint8_t> bits;
  return DecodeInto(received, &bits);
}

std::optional<TagId> WaveformCodec::DecodeInto(
    std::span<const Sample> received,
    std::vector<std::uint8_t>* bits_scratch) const {
  demodulator_.DemodulateInto(received, frame_bits(), bits_scratch);
  return DecodeBits(*bits_scratch);
}

std::optional<TagId> WaveformCodec::DecodeBits(
    std::span<const std::uint8_t> bits) const {
  if (bits.size() != frame_bits()) return std::nullopt;
  // Preamble check; bit 0 is decided from S-1 phase differences and is
  // still expected to be correct under reasonable SNR.
  for (int i = 0; i < preamble_bits_; ++i) {
    const std::uint8_t expected = (i % 2 == 0) ? 1 : 0;
    if (bits[static_cast<std::size_t>(i)] != expected) return std::nullopt;
  }
  TagId id;
  if (!TagId::FromBits(bits.subspan(static_cast<std::size_t>(preamble_bits_)),
                       &id)) {
    return std::nullopt;
  }
  return id;
}

}  // namespace anc::signal
