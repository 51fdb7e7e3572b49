// Binary-coded chromosomes and their decoding/serialisation.
//
// Each variable occupies bits_per_var bits; decoding maps the unsigned
// integer linearly onto [lo, hi] as in DeJong's experiments.  Migrant
// serialisation is compact (raw genome bytes + the fitness as a double) to
// match the small PVM messages of the paper's user-level implementation.
#pragma once

#include <algorithm>
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

/// Decode a genome into real variables for `fn`.
[[nodiscard]] inline std::vector<double> decode(const util::BitVec& genome,
                                                const TestFunction& fn) {
  std::vector<double> x(static_cast<std::size_t>(fn.nvars));
  const double denom =
      static_cast<double>((1ULL << fn.bits_per_var) - 1ULL);
  for (int i = 0; i < fn.nvars; ++i) {
    const std::uint64_t raw =
        genome.extract(static_cast<std::size_t>(i * fn.bits_per_var),
                       static_cast<std::size_t>(fn.bits_per_var));
    x[static_cast<std::size_t>(i)] =
        fn.lo + (fn.hi - fn.lo) * static_cast<double>(raw) / denom;
  }
  return x;
}

/// Serialized size of one migrant for `fn`: byte-packed genome plus the
/// fitness as a double (the PVM-era wire format of a bitstring + score).
[[nodiscard]] inline std::uint32_t migrant_bytes(const TestFunction& fn) {
  return static_cast<std::uint32_t>((fn.genome_bits() + 7) / 8 +
                                    sizeof(double));
}

/// Append an individual's wire form to `p`: the genome LSB-first, eight
/// bits to a byte (the last byte holds the remainder), then the fitness.
inline void pack_individual(rt::Packet& p, const Individual& ind,
                            const TestFunction& fn) {
  const auto nbits = static_cast<std::size_t>(fn.genome_bits());
  for (std::size_t offset = 0; offset < nbits; offset += 8) {
    p.pack_u8(static_cast<std::uint8_t>(
        ind.genome.extract(offset, std::min<std::size_t>(8, nbits - offset))));
  }
  p.pack_double(ind.fitness);
}

/// Inverse of pack_individual, into `ind`: a genome of the right size is
/// overwritten in place, so a caller that reuses its Individuals decodes
/// without allocating.
inline void unpack_individual(rt::Packet& p, const TestFunction& fn,
                              Individual& ind) {
  const auto nbits = static_cast<std::size_t>(fn.genome_bits());
  if (ind.genome.size() != nbits) ind.genome = util::BitVec(nbits);
  for (std::size_t offset = 0; offset < nbits; offset += 8) {
    ind.genome.deposit(offset, std::min<std::size_t>(8, nbits - offset),
                       p.unpack_u8());
  }
  ind.fitness = p.unpack_double();
  ind.evaluated = true;
}

}  // namespace nscc::ga
