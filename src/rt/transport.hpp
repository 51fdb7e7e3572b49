// Reliable-transport policy and bookkeeping for the PVM-like runtime.
//
// The mid-90s PVM daemons ran over UDP and implemented their own
// sequence/ACK/retransmit layer for control traffic; application data could
// ride either that reliable path or raw datagrams.  We model the same split:
// when ReliabilityConfig::enabled is set, control messages (barriers, DSM
// read demands, synchronous-mode updates, application sends) carry per
// (src,dst) sequence numbers, receivers de-duplicate and ACK them, and the
// sender retransmits on an exponential-backoff timer.  Asynchronous DSM
// updates stay best-effort — losing one merely raises staleness, which is
// exactly the data-race tolerance the paper exploits.
//
// The layer is OFF by default: with no FaultPlan the network never drops
// frames, and ACK traffic would perturb the timing of every fault-free
// experiment for nothing.
#pragma once

#include <cstdint>
#include <set>

#include "sim/time.hpp"

namespace nscc::rt {

/// Per-message reliability override for send/post call sites.
enum class Reliability {
  kAuto,        ///< Tag-based policy (see VirtualMachine::reliable_for).
  kReliable,    ///< Sequence + ACK + retransmit (when transport enabled).
  kBestEffort,  ///< Fire and forget, even for control tags.
};

struct ReliabilityConfig {
  /// Master switch.  Off: no sequence numbers, no ACKs, no retransmits —
  /// byte-identical behaviour to the pre-transport runtime.
  bool enabled = false;
  /// Initial retransmission timeout.  PVM-over-UDP on a 10 Mbps Ethernet
  /// saw multi-millisecond RTTs; 100 ms is the classic conservative floor.
  sim::Time ack_timeout = 100 * sim::kMillisecond;
};

/// RTO multiplier per failed attempt.
inline constexpr double kRetxBackoff = 2.0;
/// Attempts (first send + retransmits) before a frame is abandoned and its
/// on_settled callback reports failure.  At 5% loss the chance of ten
/// straight losses is ~1e-13.
inline constexpr int kMaxTxAttempts = 10;
/// Modelled wire size of an ACK frame (sequence number + header slack).
inline constexpr std::uint32_t kAckBytes = 8;

/// Receiver-side duplicate filter for one (src -> me) stream.  Tracks the
/// contiguous prefix of seen sequence numbers plus a sparse set of
/// out-of-order arrivals (retransmits can leapfrog delayed originals).
///
/// Memory is bounded: the sparse set holds at most kMaxAhead entries.  When
/// it would overflow, the cumulative floor advances to the smallest buffered
/// seq, forgetting any gaps below it.  A gap only persists when the sender
/// abandoned that frame (kMaxTxAttempts exhausted), so nothing that will ever
/// arrive is misclassified; a pathological replay of a forgotten gap seq
/// would be re-delivered, which the age-bounded application layer tolerates
/// by construction.
class SeqTracker {
 public:
  /// Sparse out-of-order entries kept per stream before the floor advances.
  static constexpr std::size_t kMaxAhead = 256;

  /// True the first time `seq` is seen; false for any replay.
  bool fresh(std::uint64_t seq) {
    if (seq <= contiguous_) return false;
    if (seq == contiguous_ + 1) {
      ++contiguous_;
      auto it = ahead_.begin();
      while (it != ahead_.end() && *it == contiguous_ + 1) {
        ++contiguous_;
        it = ahead_.erase(it);
      }
      return true;
    }
    if (!ahead_.insert(seq).second) return false;
    if (ahead_.size() > kMaxAhead) {
      // Advance the floor past the oldest gap and collapse the contiguous
      // run that sat above it.
      auto it = ahead_.begin();
      contiguous_ = *it;
      it = ahead_.erase(it);
      while (it != ahead_.end() && *it == contiguous_ + 1) {
        ++contiguous_;
        it = ahead_.erase(it);
      }
    }
    return true;
  }

  /// Out-of-order seqs currently buffered (regression hook: stays <=
  /// kMaxAhead no matter how many messages flow).
  [[nodiscard]] std::size_t pending() const noexcept { return ahead_.size(); }
  /// All seqs in [1, floor()] count as seen.
  [[nodiscard]] std::uint64_t floor() const noexcept { return contiguous_; }

 private:
  std::uint64_t contiguous_ = 0;  ///< All seqs in [1, contiguous_] seen.
  std::set<std::uint64_t> ahead_;
};

/// Machine-wide transport counters (flushed to the obs registry as rt.*).
struct TransportStats {
  std::uint64_t retransmissions = 0;
  std::uint64_t retx_abandoned = 0;  ///< Frames given up after kMaxTxAttempts.
  std::uint64_t acks_sent = 0;
  std::uint64_t dup_frames_dropped = 0;  ///< Receiver-side dedup hits.
  std::uint64_t crc_drops = 0;  ///< Damaged frames dropped at the NIC.
  std::uint64_t malformed_frames = 0;  ///< Undetected damage caught parsing.
};

}  // namespace nscc::rt
