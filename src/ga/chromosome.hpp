// Binary-coded chromosomes and their decoding/serialisation.
//
// Each variable occupies bits_per_var bits; decoding maps the unsigned
// integer linearly onto [lo, hi] as in DeJong's experiments.  Migrant
// serialisation is compact (raw genome bytes + the fitness as a double) to
// match the small PVM messages of the paper's user-level implementation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ga/functions.hpp"
#include "rt/packet.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace nscc::ga {

struct Individual {
  util::BitVec genome;
  double fitness = 0.0;
  bool evaluated = false;
};

/// Decode a genome into real variables for `fn`, into `x` (resized to
/// fn.nvars): a caller that keeps `x` across evaluations decodes without
/// allocating.
inline void decode(const util::BitVec& genome, const TestFunction& fn,
                   std::vector<double>& x) {
  x.resize(static_cast<std::size_t>(fn.nvars));
  const double denom =
      static_cast<double>((1ULL << fn.bits_per_var) - 1ULL);
  for (int i = 0; i < fn.nvars; ++i) {
    const std::uint64_t raw =
        genome.extract(static_cast<std::size_t>(i * fn.bits_per_var),
                       static_cast<std::size_t>(fn.bits_per_var));
    x[static_cast<std::size_t>(i)] =
        fn.lo + (fn.hi - fn.lo) * static_cast<double>(raw) / denom;
  }
}

[[nodiscard]] inline std::vector<double> decode(const util::BitVec& genome,
                                                const TestFunction& fn) {
  std::vector<double> x;
  decode(genome, fn, x);
  return x;
}

/// Serialized size of one migrant for `fn`: byte-packed genome plus the
/// fitness as a double (the PVM-era wire format of a bitstring + score).
[[nodiscard]] inline std::uint32_t migrant_bytes(const TestFunction& fn) {
  return static_cast<std::uint32_t>((fn.genome_bits() + 7) / 8 +
                                    sizeof(double));
}

// The codec moves whole genome words with pack_u64/unpack_u64, which copy
// the word's bytes in host order.  On a little-endian host those are the
// bytes of the LSB-first, eight-bits-to-a-byte wire format, so a word
// costs one 8-byte copy instead of eight single-byte ones.
static_assert(std::endian::native == std::endian::little,
              "the migrant codec's word copies assume little-endian words");

/// Append an individual's wire form to `p`: the genome LSB-first, eight
/// bits to a byte (the last byte holds the remainder), then the fitness.
inline void pack_individual(rt::Packet& p, const Individual& ind,
                            const TestFunction& fn) {
  const auto nbits = static_cast<std::size_t>(fn.genome_bits());
  const std::vector<std::uint64_t>& words = ind.genome.words();
  const std::size_t full = nbits / 64;
  for (std::size_t w = 0; w < full; ++w) p.pack_u64(words[w]);
  // The partial last word, one byte per started eight bits.
  const std::size_t tail_bytes = (nbits % 64 + 7) / 8;
  for (std::size_t b = 0; b < tail_bytes; ++b) {
    p.pack_u8(static_cast<std::uint8_t>(words[full] >> (8 * b)));
  }
  p.pack_double(ind.fitness);
}

/// Inverse of pack_individual, into `ind`: a genome of the right size is
/// overwritten in place, so a caller that reuses its Individuals decodes
/// without allocating.  Wire bits past the genome's size are dropped, so
/// the tail stays zero.  A frame cut short throws std::out_of_range.
inline void unpack_individual(rt::Packet& p, const TestFunction& fn,
                              Individual& ind) {
  const auto nbits = static_cast<std::size_t>(fn.genome_bits());
  if (ind.genome.size() != nbits) ind.genome = util::BitVec(nbits);
  const std::size_t full = nbits / 64;
  for (std::size_t w = 0; w < full; ++w) {
    ind.genome.deposit(64 * w, 64, p.unpack_u64());
  }
  if (const std::size_t rem = nbits % 64; rem != 0) {
    std::uint64_t tail = 0;
    for (std::size_t b = 0; b < (rem + 7) / 8; ++b) {
      tail |= static_cast<std::uint64_t>(p.unpack_u8()) << (8 * b);
    }
    ind.genome.deposit(64 * full, rem, tail);
  }
  ind.fitness = p.unpack_double();
  ind.evaluated = true;
}

}  // namespace nscc::ga
