// The benchmark's workloads and the set-up that builds their inputs.
//
// Every input comes from the workload seed: resident placement, the
// pre-encrypted upload pool, alert zones, and the fixed operation
// lists. The pairing group and the likelihood surfaces are fixed per
// workload, so a seed changes what is asked, not the parameters.

#ifndef PERFBENCH_BENCH_WORKLOAD_H_
#define PERFBENCH_BENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "grid/grid.h"
#include "net/server.h"
#include "oracle.h"

namespace perfbench {

enum class ZoneKind {
  kCircular,    ///< likelihood-placed circles, radii 20 m to a few 100 m
  kSmall,       ///< likelihood-placed circles of 20 to 40 m
  kTrajectory,  ///< union of 20 m zones around a few visited sites
};

struct WorkloadSpec {
  std::string name;
  int grid_side = 32;
  double cell_m = 50.0;
  bool crime_surface = true;  ///< false: sigmoid popularity surface
  /// Residents and upload destinations drawn from the surface (people
  /// gather where it is high) instead of uniformly over the grid.
  bool people_follow_surface = false;
  size_t prime_bits = 120;    ///< subgroup prime size
  /// Resident users; the upload pool holds as many pre-encrypted
  /// ciphertexts, one per resident's starting cell.
  int residents = 32;

  // Alert stream (one closed-loop TA connection).
  ZoneKind zone_kind = ZoneKind::kCircular;
  int zone_pool = 16;          ///< distinct zones (kTrajectory: per alert)
  double alerts_per_s = 8.0;   ///< op-list size per second of run
  double alert_period_s = 0.0; ///< 0: back to back; else paced sends

  // Upload stream (one connection).
  bool open_loop = true;       ///< open: scheduled sends; closed: a window
  int window = 16;             ///< closed loop: uploads in flight
  /// Open loop: the send rate. Both: op-list size per second of run.
  double uploads_per_s = 20.0;

  size_t compact_log_bytes = 64u << 20;
  /// > 0: before the restart the log is folded into a snapshot and a
  /// tail of this many records (each user's final location, cycled) is
  /// appended, so every run's recovery replays the same WAL tail.
  int tail_records = 0;
};

/// The named workloads, in the order the benchmark lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Server and store configuration shared by every workload (the thread
/// budget; see perfbench/README.md).
sloc::net::AlertServer::Options ServerOptions();
sloc::api::LogBackedStore::Options StoreOptions(const WorkloadSpec& spec);
sloc::alert::ServiceProvider::Options TwinOptions();

/// One upload of the fixed operation list.
struct Move {
  int user = 0;
  int pool = 0;  ///< upload-pool entry (its ciphertext and cell)
};

struct Fixture {
  const WorkloadSpec* spec = nullptr;
  std::optional<sloc::Grid> grid;
  std::vector<double> probs;
  std::shared_ptr<const sloc::PairingGroup> group;
  std::unique_ptr<sloc::alert::TrustedAuthority> ta;
  std::vector<std::string> cell_index;     ///< per cell
  std::vector<int> pool_cell;              ///< per pool entry
  std::vector<std::vector<uint8_t>> pool_ct;
  std::vector<Zone> zones;
  std::vector<int> alert_ops;              ///< zone index per alert
  std::vector<Move> upload_ops;

  /// Resident u starts on pool entry u - 1.
  int num_users() const { return int(pool_cell.size()); }
  const std::vector<int>& InitialCells() const { return pool_cell; }
};

/// Builds every input of one run: group and keys, the encrypted upload
/// pool, the issued alert pool, and the operation lists sized for
/// `seconds`. `residents` overrides the spec (0 keeps it).
Fixture BuildFixture(const WorkloadSpec& spec, uint64_t seed, int seconds,
                     size_t prime_bits, int residents = 0);

/// Writes the fixture's residents to a fresh store under `dir` and
/// compacts it to a snapshot.
void PopulateStore(const Fixture& fx, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOAD_H_
