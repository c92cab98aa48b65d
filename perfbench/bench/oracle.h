// Plaintext ground truth for every alert the benchmark sends.
//
// The oracle never asks the program under test: it knows the plaintext
// cell behind every ciphertext it uploaded and the plaintext patterns
// behind every token bundle, and recomputes from those alone.
//
//   * Live check (any alert): per user it keeps the last acked cell
//     and the cells of uploads sent but not yet acked. A scan may see
//     any of them, so a user whose possible cells all lie in the zone
//     must be notified and a user whose possible cells all lie outside
//     must not be.
//   * Quiescent check (no upload in flight): the notified set must equal
//     the plaintext matches exactly, and the outcome's tokens,
//     non_star_bits, queries and pairings must equal the paper's cost
//     recount: per user, tokens in bundle order, one query of 2|J|+1
//     pairings each, stopping at the user's first plaintext match.
//   * Failed uploads: a rejected or erroring ack, or one that never
//     came, leaves its cell "possibly applied" until the user's next
//     clean ack. Both checks accept either cell for such a user; the
//     quiescent check then requires the counts to equal the recount for
//     some choice among each user's possible cells.

#ifndef PERFBENCH_BENCH_ORACLE_H_
#define PERFBENCH_BENCH_ORACLE_H_

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/messages.h"

namespace perfbench {

/// A failed correctness check; the run exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One issued alert zone with its plaintext description.
struct Zone {
  std::vector<int> cells;              ///< sorted
  std::vector<bool> in_zone;           ///< per grid cell
  std::vector<std::string> patterns;   ///< token patterns, bundle order
  std::vector<uint8_t> bundle;         ///< kAlertTokens frame
};

/// The paper's cost counts for one alert over a plaintext state.
struct Recount {
  std::vector<int> notified;  ///< sorted
  uint64_t tokens = 0;
  uint64_t non_star_bits = 0;
  uint64_t queries = 0;
  uint64_t pairings = 0;
};

/// Cost recount of `zone` over users 1..cells.size() (cells[u-1] is
/// user u's plaintext cell). `cell_index` maps a cell to its HVE index.
Recount CountAlert(const Zone& zone, const std::vector<int>& cells,
                   const std::vector<std::string>& cell_index);

/// Deliberate corruption used by the benchmark's self-test. The first
/// three corrupt one checked outcome and must fail the run; kRejectAck
/// makes the benchmark treat its first upload ack as rejected, which
/// must count one failed upload and still pass every check.
enum class Tamper { kNone, kAddUser, kDropUser, kPairings, kRejectAck };

class Oracle {
 public:
  /// Users are 1..initial_cells.size(), all resident and acked.
  Oracle(std::vector<int> initial_cells, std::vector<std::string> cell_index);

  int num_users() const { return int(acked_.size()); }

  /// Call before the upload's bytes leave the client.
  void Sent(int user, int cell);
  /// Call after a clean ack. Per user, acks arrive in send order.
  void Acked(int user, int cell);
  /// Call after a rejected or erroring ack, in the same order as Acked:
  /// the upload may or may not have been applied.
  void Failed(int user, int cell);
  /// Marks every upload still in flight as failed (its connection is
  /// gone and no ack will come).
  void AbandonPending();

  /// What a scan may observe; taken right before an alert is sent.
  struct Ticket {
    std::vector<int> acked;
    std::vector<std::vector<int>> pending;  ///< in flight or failed
    size_t first_send = 0;
    size_t end_send = 0;  ///< set by Close, right after the reply
  };
  Ticket Open() const;
  void Close(Ticket* ticket) const;

  /// Live check; throws CheckFailure.
  void CheckLive(const Ticket& ticket, const Zone& zone,
                 const sloc::api::OutcomeReport& outcome) const;

  /// Exact check on a quiescent store; throws CheckFailure.
  void CheckQuiescent(const Zone& zone,
                      const sloc::api::OutcomeReport& outcome) const;

  /// Exact check of `outcome` against a recount over `cells`.
  void CheckExact(const Zone& zone, const std::vector<int>& cells,
                  const sloc::api::OutcomeReport& outcome) const;

  /// Every user's last acked cell.
  std::vector<int> AckedCells() const;

  const std::vector<std::string>& cell_index() const { return cell_index_; }

  /// Applies `tamper` to the next outcome checked (once).
  void SetTamper(Tamper tamper) { tamper_ = tamper; }

 private:
  sloc::api::OutcomeReport MaybeTamper(
      const sloc::api::OutcomeReport& outcome) const;
  /// Exact check where user u may sit in any of cells[u - 1].
  void CheckCells(const Zone& zone, const std::vector<std::vector<int>>& cells,
                  const sloc::api::OutcomeReport& outcome) const;

  std::vector<std::string> cell_index_;
  mutable std::mutex mu_;
  std::vector<int> acked_;                   // guarded by mu_
  std::vector<std::vector<int>> pending_;    // guarded by mu_
  std::vector<std::vector<int>> failed_;     // guarded by mu_
  std::vector<std::pair<int, int>> sends_;   // guarded by mu_
  mutable Tamper tamper_ = Tamper::kNone;    // main thread only
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_ORACLE_H_
