// Per-layer probes of the traced run: timed calls into each module's
// public functions, on the same inputs the service run used.

#ifndef PERFBENCH_BENCH_LAYERS_H_
#define PERFBENCH_BENCH_LAYERS_H_

#include <string>
#include <vector>

#include "api/messages.h"
#include "oracle.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// Unit costs of the field -> pairing -> query ladder at one field.
struct UnitCosts {
  double fp_mul_ns = 0.0;
  double fp2_mul_ns = 0.0;
  double fp2_sqr_ns = 0.0;
  double walk_us = 0.0;         ///< mean precompiled Miller walk (a query)
  double walk_base_us = 0.0;    ///< walk cost = base + per_pair * pairs
  double walk_pair_us = 0.0;
  double final_exp_us = 0.0;
  double batch_final_exp_us = 0.0;  ///< per element of a batch
  double precompile_ms = 0.0;       ///< per token
};

/// Times the ladder's rungs on the tokens of `zone_ids` against the
/// ciphertexts of users whose cells are `cells` (user u at cells[u-1]).
UnitCosts MeasureUnits(const Fixture& fx, const std::vector<int>& cells,
                       const std::vector<int>& zone_ids);

/// In-process ServiceProvider::ProcessAlertBundle on a twin provider
/// holding the same residents; every outcome is checked exactly.
struct TwinSample {
  std::vector<double> process_ms;
  std::vector<sloc::api::OutcomeReport> outcomes;
};
TwinSample RunTwin(const Fixture& fx, const Oracle& oracle,
                   const std::vector<int>& cells,
                   const std::vector<int>& zone_ids);

/// The ladder's prediction for one alert: token compilation for cache
/// misses, a Miller walk per query, one batched final exponentiation
/// per query, spread over the scan threads.
double PredictAlertMs(const UnitCosts& units,
                      const sloc::api::OutcomeReport& outcome,
                      unsigned threads);

/// hve.parse_ct_us, hve.encrypt_ms, hve.issue_ms_per_alert.
void ProbeHve(const Fixture& fx, Metrics* out);

/// api.put_us, api.durable_wait_us, api.compact_ms and alert.submit_us,
/// on fresh stores under `dir`.
void ProbeStoreWrites(const Fixture& fx, const std::string& dir,
                      Metrics* out);

/// api.open_ms, api.materialize_ms, api.wal_bytes_at_restart and
/// api.disk_bytes_per_user for the store the run left at `dir`.
void ProbeStoreAsLeft(const Fixture& fx, const std::string& dir,
                      Metrics* out);

/// A pool entry whose ciphertext encrypts `cell` (-1 when none does).
int PoolEntryOf(const Fixture& fx, int cell);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LAYERS_H_
