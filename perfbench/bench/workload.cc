#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "encoders/encoder.h"
#include "grid/alert_zone.h"
#include "hve/serialize.h"
#include "prob/crime_synth.h"
#include "prob/sigmoid.h"

namespace perfbench {

using namespace sloc;

namespace {

constexpr uint64_t kGroupSeed = 20210323;
constexpr uint64_t kZonePoolSeed = 2015;
// Every op list has at least this many samples, so each timing has a
// tail percentile with ten samples beyond it.
constexpr int kMinSamples = 40;

WorkloadSpec AlertScan() {
  WorkloadSpec s;
  s.name = "alert_scan";
  s.grid_side = 32;
  s.cell_m = 50.0;
  s.crime_surface = true;
  s.prime_bits = 120;
  s.residents = 8;
  s.zone_kind = ZoneKind::kCircular;
  s.zone_pool = 6;
  s.alerts_per_s = 3.75;
  s.open_loop = true;
  s.uploads_per_s = 50.0;
  return s;
}

WorkloadSpec DurableIngest() {
  WorkloadSpec s = AlertScan();
  s.name = "durable_ingest";
  s.residents = 24;
  s.zone_kind = ZoneKind::kSmall;
  s.zone_pool = 10;
  s.alerts_per_s = 6.0;
  s.alert_period_s = 1.0 / 6.0;
  s.open_loop = false;
  s.window = 128;
  s.uploads_per_s = 7000.0;
  s.compact_log_bytes = 32u << 20;
  s.tail_records = 2000;
  return s;
}

WorkloadSpec ContactTraceMixed() {
  WorkloadSpec s;
  s.name = "contact_trace_mixed";
  s.grid_side = 16;
  s.cell_m = 20.0;
  s.crime_surface = false;
  s.people_follow_surface = true;
  s.prime_bits = 32;
  s.residents = 64;
  s.zone_kind = ZoneKind::kTrajectory;
  s.alerts_per_s = 8.0;
  s.open_loop = true;
  s.uploads_per_s = 50.0;
  return s;
}

std::vector<double> Surface(const WorkloadSpec& spec, const Grid& grid) {
  if (spec.crime_surface) {
    CrimeDataset data = GenerateCrimeDataset(grid, CrimeDatasetSpec{}).value();
    return TrainCrimeLikelihood(grid, data).value().cell_probs;
  }
  Rng rng(2020);
  return GenerateSigmoidProbabilities(size_t(grid.num_cells()), 0.85, 30.0,
                                      &rng);
}

/// A cell drawn with probability proportional to the surface.
int LikelyCell(const Grid& grid, const std::vector<double>& probs, Rng* rng) {
  return RandomCircularZone(grid, 0.0, rng, &probs).cells[0];
}

/// Zone z of the workload's pool. Circular pools cycle through their
/// radius classes, so every class holds the same number of zones.
std::vector<int> ZoneCells(const WorkloadSpec& spec, const Grid& grid,
                           const std::vector<double>& probs, size_t z,
                           Rng* rng) {
  static const double kCircularRadii[] = {20, 50, 100, 150, 200};
  static const double kSmallRadii[] = {20, 30, 40};
  switch (spec.zone_kind) {
    case ZoneKind::kCircular:
      return RandomCircularZone(grid, kCircularRadii[z % 5], rng, &probs)
          .cells;
    case ZoneKind::kSmall:
      return RandomCircularZone(grid, kSmallRadii[z % 3], rng, &probs).cells;
    case ZoneKind::kTrajectory: {
      std::vector<int> cells;
      for (int site = 0; site < 3; ++site) {
        AlertZone zone = ProbabilisticCircularZone(grid, 20.0, rng, probs);
        cells.insert(cells.end(), zone.cells.begin(), zone.cells.end());
      }
      std::sort(cells.begin(), cells.end());
      cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
      return cells;
    }
  }
  return {};
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {AlertScan(), DurableIngest(),
                                                 ContactTraceMixed()};
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

net::AlertServer::Options ServerOptions() {
  net::AlertServer::Options o;
  o.io_threads = 1;
  o.num_workers = 2;
  o.scan_threads = 2;
  o.token_cache_capacity = 128;
  return o;
}

api::LogBackedStore::Options StoreOptions(const WorkloadSpec& spec) {
  api::LogBackedStore::Options o;
  o.num_shards = 4;
  o.compact_log_bytes = spec.compact_log_bytes;
  o.fsync_batch_max = 64;
  o.fsync_interval_us = 1000;
  return o;
}

alert::ServiceProvider::Options TwinOptions() {
  const net::AlertServer::Options server = ServerOptions();
  alert::ServiceProvider::Options o;
  o.num_shards = 4;
  o.num_threads = server.scan_threads;
  o.token_cache_capacity = server.token_cache_capacity;
  return o;
}

Fixture BuildFixture(const WorkloadSpec& spec, uint64_t seed, int seconds,
                     size_t prime_bits, int residents) {
  Fixture fx;
  fx.spec = &spec;
  fx.grid = Grid::Create(spec.grid_side, spec.grid_side, spec.cell_m).value();
  const Grid& grid = *fx.grid;
  fx.probs = Surface(spec, grid);

  PairingParamSpec pairing;
  pairing.p_prime_bits = prime_bits;
  pairing.q_prime_bits = prime_bits;
  pairing.seed = kGroupSeed;
  fx.group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(pairing).value());

  auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
  SLOC_CHECK(encoder->Build(fx.probs).ok());
  auto ta_rng = std::make_shared<Rng>(seed * 7919 + 1);
  fx.ta = std::make_unique<alert::TrustedAuthority>(
      alert::TrustedAuthority::Create(fx.group, std::move(encoder),
                                      [ta_rng] { return ta_rng->NextU64(); })
          .value());
  for (int c = 0; c < grid.num_cells(); ++c) {
    fx.cell_index.push_back(fx.ta->IndexOfCell(c).value());
  }

  // Circular pools come from a fixed pool seed and every stream zone is
  // used equally often, in an order shuffled per cycle by the run seed:
  // the mix of alert costs is the same for every seed, while the seed
  // moves the order, the residents and the upload stream. Zone 0 is the
  // warm-up, post-phase and restart alert; it also comes from the pool
  // seed, so set-up and recovery do the same alert work on every seed.
  // Trajectories are fresh for every alert of the stream.
  Rng rng(seed);
  const bool pooled = spec.zone_kind != ZoneKind::kTrajectory;
  int num_alerts =
      std::max(kMinSamples, int(std::ceil(seconds * spec.alerts_per_s)));
  const int stream_zones = pooled ? spec.zone_pool - 1 : num_alerts;
  num_alerts = (num_alerts + stream_zones - 1) / stream_zones * stream_zones;
  Rng pool_rng(kZonePoolSeed);
  for (int z = 0; z <= stream_zones; ++z) {
    Rng* zone_rng = pooled || z == 0 ? &pool_rng : &rng;
    Zone zone;
    zone.cells = ZoneCells(spec, grid, fx.probs, size_t(z), zone_rng);
    zone.in_zone.assign(size_t(grid.num_cells()), false);
    for (int c : zone.cells) zone.in_zone[size_t(c)] = true;
    zone.patterns = fx.ta->PatternsFor(zone.cells).value();
    zone.bundle = fx.ta->IssueAlertBundle(uint64_t(z) + 1, zone.cells).value();
    fx.zones.push_back(std::move(zone));
  }
  for (int a = 0; a < num_alerts; a += stream_zones) {
    std::vector<int> cycle;
    for (int z = 1; z <= stream_zones; ++z) cycle.push_back(z);
    for (size_t i = cycle.size(); pooled && i > 1; --i) {
      std::swap(cycle[i - 1], cycle[size_t(rng.NextBelow(i))]);
    }
    fx.alert_ops.insert(fx.alert_ops.end(), cycle.begin(), cycle.end());
  }

  // Upload pool: one entry per resident. Entry 0 sits in zone 0 so the
  // warm-up alert notifies someone; the rest are placed uniformly or
  // where the surface says people are.
  const int num_users = residents > 0 ? residents : spec.residents;
  fx.pool_cell.push_back(fx.zones[0].cells[0]);
  for (int p = 1; p < num_users; ++p) {
    fx.pool_cell.push_back(
        spec.people_follow_surface
            ? LikelyCell(grid, fx.probs, &rng)
            : int(rng.NextBelow(uint64_t(grid.num_cells()))));
  }
  // Set-up runs on one thread: several threads would make setup_s
  // follow whatever the host's other tenants are doing.
  auto user_rng = std::make_shared<Rng>(seed * 104729);
  alert::MobileUser user =
      alert::MobileUser::JoinFromAnnouncement(
          1, fx.group, fx.ta->PublicKeyAnnouncement(), fx.ta->marker(),
          [user_rng] { return user_rng->NextU64(); })
          .value();
  for (int cell : fx.pool_cell) {
    fx.pool_ct.push_back(
        user.EncryptLocation(fx.cell_index[size_t(cell)]).value());
  }

  // Each upload moves a random resident to a random pool entry's cell.
  const int num_uploads =
      std::max(kMinSamples, int(std::ceil(seconds * spec.uploads_per_s)));
  for (int j = 0; j < num_uploads; ++j) {
    Move move;
    move.user = 1 + int(rng.NextBelow(uint64_t(num_users)));
    move.pool = int(rng.NextBelow(uint64_t(num_users)));
    fx.upload_ops.push_back(move);
  }
  return fx;
}

void PopulateStore(const Fixture& fx, const std::string& dir) {
  std::vector<hve::Ciphertext> cts;
  for (const auto& blob : fx.pool_ct) {
    cts.push_back(hve::ParseCiphertext(*fx.group, blob).value());
  }
  api::LogBackedStore::Options options = StoreOptions(*fx.spec);
  options.compact_log_bytes = 0;
  options.fsync_batch_max = 0;
  auto store = api::LogBackedStore::Open(dir, fx.group, options).value();
  for (size_t u = 0; u < cts.size(); ++u) store->Put(int(u) + 1, cts[u]);
  SLOC_CHECK(store->io_status().ok());
  SLOC_CHECK(store->Compact().ok());
}

}  // namespace perfbench
