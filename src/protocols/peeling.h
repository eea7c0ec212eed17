// The peeling (iterative SIC) decoder of the coded-ALOHA reader, Irsa
// (IRSA, CRDSA-d and SEEDED). DESIGN.md §7c.
//
// A decode runs over *equations*: sets of distinct tag indices whose
// replicas superpose in one stored signal (a slot of the buffered frame,
// or a seeded-mode collision record kept from an earlier frame). An equation
// left with one unknown constituent yields that tag, which is then
// cancelled out of every equation it appears in.
//
// Each equation keeps its remaining count and the XOR of its remaining
// tags, so at count 1 the XOR is the tag. Per-tag incidence lists (CSR)
// are built by walking the equations in ascending order, so each list is
// ascending: cancelling a tag walks only its own equations and queues
// those reaching count 1 in the order a full ascending sweep over all
// equations would. Decode order, the yielding equation of every read and
// the pop count therefore match that sweep (tests/test_peeling.cpp).
// Counts only fall, so each equation is queued at most once and a decode
// pops at most one entry per equation. Peeling is O(edges), plus an
// O(tags) clear of tag-indexed scratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace anc::protocols {

class PeelingDecoder {
 public:
  struct Read {
    std::uint32_t tag;
    std::uint32_t equation;  // the equation that yielded the tag
  };

  // Starts an empty system over tag indices [0, num_tags).
  void Reset(std::uint32_t num_tags);
  // Appends the next equation. `tags` must be distinct and < num_tags.
  void AddEquation(std::span<const std::uint32_t> tags);

  // Runs once per Reset(). Seeds the ready queue with every count-1
  // equation in index order, then pops it until empty (a stopping set,
  // or nothing, survives).
  void Decode();

  // Results of the last Decode().
  std::span<const Read> reads() const { return reads_; }  // decode order
  bool Decoded(std::uint32_t tag) const { return decoded_[tag] != 0; }
  // Constituents of `equation` still unknown after peeling.
  std::uint32_t Remaining(std::size_t equation) const {
    return count_[equation];
  }
  // Ready-queue pops, including those of equations that emptied while
  // queued.
  std::int64_t pops() const { return pops_; }

 private:
  // Equations as CSR: equation e holds eq_tags_[eq_start_[e] ..
  // eq_start_[e + 1]).
  std::vector<std::uint32_t> eq_start_{0};
  std::vector<std::uint32_t> eq_tags_;
  std::vector<std::uint32_t> count_;  // remaining constituents
  std::vector<std::uint32_t> xor_;    // XOR of remaining constituents
  // Per-tag incidence as CSR: tag t's equations, ascending, are
  // incidence_[tag_start_[t] .. tag_start_[t + 1]).
  std::vector<std::uint32_t> tag_start_;
  std::vector<std::uint32_t> incidence_;
  std::vector<std::uint32_t> ready_;
  std::vector<std::uint8_t> decoded_;
  std::vector<Read> reads_;
  std::int64_t pops_ = 0;
};

}  // namespace anc::protocols
