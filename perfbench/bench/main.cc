// The service benchmark: hosts a live net::AlertServer over an
// api::LogBackedStore in this process and drives it over loopback with
// net::AlertClient. See perfbench/README.md for the workloads, the
// metrics and the thread budget.
//
//   perfbench_service --workload NAME --seed N --seconds S --trace 0|1
//                    --tmp-root DIR [--out-dir DIR]
//                    [--tamper none|add|drop|pairings|reject]
//
// Untraced runs (--trace 0) print the end-to-end metrics; the traced
// run (--trace 1) repeats the same inputs with spans on and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check exits 1 without that line.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/log_store.h"
#include "hve/serialize.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sloc;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tmp_root;
  std::string out_dir;
  Tamper tamper = Tamper::kNone;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench_service: " << why
            << "\nusage: perfbench_service --workload NAME --seed N "
               "--seconds S --trace 0|1 --tmp-root DIR [--out-dir DIR] "
               "[--tamper none|add|drop|pairings|reject]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = int(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1) Usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--tmp-root") {
      a.tmp_root = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--tamper") {
      if (v == "none") a.tamper = Tamper::kNone;
      else if (v == "add") a.tamper = Tamper::kAddUser;
      else if (v == "drop") a.tamper = Tamper::kDropUser;
      else if (v == "pairings") a.tamper = Tamper::kPairings;
      else if (v == "reject") a.tamper = Tamper::kRejectAck;
      else Usage("bad --tamper " + v);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Usage("unknown workload '" + a.workload + "'");
  }
  if (a.tmp_root.empty()) Usage("--tmp-root is required");
  return a;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Removes the store root on every exit path of main.
struct TempRoot {
  explicit TempRoot(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempRoot(const TempRoot&) = delete;
  TempRoot& operator=(const TempRoot&) = delete;
  std::string path;
};

/// Attempted/failed counts per operation type.
struct OpCounts {
  uint64_t alerts = 0, alerts_failed = 0;
  uint64_t uploads = 0, uploads_failed = 0;
};

std::unique_ptr<net::AlertServer> StartServer(
    const Fixture& fx, std::unique_ptr<api::LogBackedStore> store) {
  net::AlertServer::Options options = ServerOptions();
  options.durability = store.get();  // the server owns the store
  return net::AlertServer::Start(fx.group, fx.ta->marker(), std::move(store),
                                 options)
      .value();
}

std::unique_ptr<api::LogBackedStore> OpenStore(const Fixture& fx,
                                               const std::string& dir) {
  return api::LogBackedStore::Open(dir, fx.group, StoreOptions(*fx.spec))
      .value();
}

/// One alert with the quiescent (exact) check; no upload may be in
/// flight.
void CheckedAlert(net::AlertClient* client, const Fixture& fx,
                  const Oracle& oracle, OpCounts* counts) {
  const Zone& zone = fx.zones[0];
  Result<api::OutcomeReport> r = client->ProcessAlertBundle(zone.bundle);
  counts->alerts += 1;
  if (!r.ok()) {
    counts->alerts_failed += 1;
    return;
  }
  if (r->resident_users != uint64_t(oracle.num_users())) {
    throw CheckFailure("store holds " + std::to_string(r->resident_users) +
                       " residents, want " +
                       std::to_string(oracle.num_users()));
  }
  oracle.CheckQuiescent(zone, *r);
}

struct Live {
  Fixture fx;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<net::AlertServer> server;
  std::string dir;
  bool reject_first_ack = false;  ///< Tamper::kRejectAck, first phase only
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Restarts per run; recovery_ms is their median.
constexpr int kRestarts = 11;

/// Everything before the first timed operation. Returns seconds.
double SetUp(const Args& args, const WorkloadSpec& spec,
             const std::string& dir, Live* live, OpCounts* counts) {
  const Clock::time_point t0 = Clock::now();
  live->dir = dir;
  live->fx = BuildFixture(spec, args.seed, args.seconds, spec.prime_bits);
  const Clock::time_point t1 = Clock::now();
  PopulateStore(live->fx, dir);
  live->oracle =
      std::make_unique<Oracle>(live->fx.InitialCells(), live->fx.cell_index);
  if (args.tamper == Tamper::kRejectAck) {
    live->reject_first_ack = true;
  } else {
    live->oracle->SetTamper(args.tamper);
  }
  const Clock::time_point t2 = Clock::now();
  live->server = StartServer(live->fx, OpenStore(live->fx, dir));
  net::AlertClient client =
      net::AlertClient::Connect(live->server->port()).value();
  CheckedAlert(&client, live->fx, *live->oracle, counts);  // warm-up
  const Clock::time_point t3 = Clock::now();
  std::cout << "setup: inputs " << MsBetween(t0, t1) << " ms, populate "
            << MsBetween(t1, t2) << " ms, start + warm-up "
            << MsBetween(t2, t3) << " ms\n";
  return MsBetween(t0, t3) / 1e3;
}

struct PhaseResult {
  std::vector<double> alert_ms, upload_ms, lateness_ms;
  double wall_s = 0.0, upload_s = 0.0, cpu_s = 0.0;
  uint64_t cache_hits = 0, cache_misses = 0;
  net::ServerStats before, after;
};

/// The upload connection's results; filled on the upload thread(s).
struct UploadStream {
  std::vector<double> latency_ms, lateness_ms;
  Clock::time_point last_ack;
  uint64_t attempted = 0, failed = 0;
  bool reject_next = false;  ///< treat the next clean ack as rejected
  std::exception_ptr error;
};

std::vector<uint8_t> UploadFrame(const Fixture& fx, const Move& move) {
  api::LocationUpload upload;
  upload.user_id = move.user;
  upload.ciphertext = fx.pool_ct[size_t(move.pool)];
  return api::EncodeLocationUpload(upload);
}

/// Handles one ack; false when the connection is gone.
bool TakeAck(const Result<api::SubmitAck>& ack, const Fixture& fx,
             Oracle* oracle, const Move& move, Clock::time_point start,
             uint64_t op, int64_t parent, UploadStream* out) {
  const Clock::time_point now = Clock::now();
  if (!ack.ok()) return false;
  const int cell = fx.pool_cell[size_t(move.pool)];
  if (ack->rejected != 0 || ack->accepted != 1 || ack->error_code != 0 ||
      std::exchange(out->reject_next, false)) {
    out->failed += 1;
    oracle->Failed(move.user, cell);
    return true;
  }
  out->latency_ms.push_back(MsBetween(start, now));
  out->last_ack = now;
  oracle->Acked(move.user, cell);
  Tracer::Get().Record("net.upload", start, now, op, parent);
  return true;
}

/// Open loop: sends at start + i / rate whatever the replies do; each
/// upload is timed from its scheduled send.
void OpenLoop(uint16_t port, const Fixture& fx, Oracle* oracle,
              const std::vector<Move>& ops, double rate,
              Clock::time_point start, int64_t parent, UploadStream* out) {
  out->attempted = ops.size();
  Result<net::AlertClient> client = net::AlertClient::Connect(port);
  if (!client.ok()) {
    out->failed = ops.size();
    return;
  }
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(double(i) / rate));
  };
  std::vector<double> lateness;
  std::thread sender([&] {
    for (size_t i = 0; i < ops.size(); ++i) {
      std::this_thread::sleep_until(due(i));
      lateness.push_back(MsBetween(due(i), Clock::now()));
      oracle->Sent(ops[i].user, fx.pool_cell[size_t(ops[i].pool)]);
      if (!client->SendOnly(UploadFrame(fx, ops[i])).ok()) break;
    }
  });
  try {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!TakeAck(client->DrainAck(), fx, oracle, ops[i], due(i), i, parent,
                   out)) {
        out->failed += ops.size() - i;
        break;
      }
    }
  } catch (...) {
    out->error = std::current_exception();
  }
  sender.join();
  out->lateness_ms = std::move(lateness);
}

/// Closed loop: keeps `window` uploads in flight on one connection;
/// each upload is timed from its send.
void ClosedLoop(uint16_t port, const Fixture& fx, Oracle* oracle,
                const std::vector<Move>& ops, size_t window, int64_t parent,
                UploadStream* out) {
  out->attempted = ops.size();
  Result<net::AlertClient> client = net::AlertClient::Connect(port);
  if (!client.ok()) {
    out->failed = ops.size();
    return;
  }
  std::vector<Clock::time_point> sent_at(ops.size());
  size_t next = 0;
  auto send = [&] {
    oracle->Sent(ops[next].user, fx.pool_cell[size_t(ops[next].pool)]);
    sent_at[next] = Clock::now();
    const bool ok = client->SendOnly(UploadFrame(fx, ops[next])).ok();
    ++next;
    return ok;
  };
  try {
    bool alive = true;
    while (alive && next < ops.size() && next < window) alive = send();
    size_t i = 0;
    for (; i < next; ++i) {
      if (!TakeAck(client->DrainAck(), fx, oracle, ops[i], sent_at[i], i,
                   parent, out)) {
        break;
      }
      if (alive && next < ops.size()) alive = send();
    }
    out->failed += ops.size() - i;  // never acked: the transport failed
  } catch (...) {
    out->error = std::current_exception();
  }
}

/// The timed phase: the fixed alert list on this thread and the fixed
/// upload list on its own connection, starting together.
PhaseResult RunPhase(Live* live, OpCounts* counts, bool traced) {
  const Fixture& fx = live->fx;
  const WorkloadSpec& spec = *fx.spec;
  Oracle* oracle = live->oracle.get();
  const uint16_t port = live->server->port();
  PhaseResult res;
  res.before = live->server->stats();
  Tracer::Get().Enable(traced);
  const int64_t phase_span =
      traced ? Tracer::Get().Open("phase", 0) : int64_t(0);

  net::AlertClient client = net::AlertClient::Connect(port).value();
  const double cpu0 = CpuSeconds();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);

  UploadStream uploads;
  uploads.reject_next = std::exchange(live->reject_first_ack, false);
  std::thread upload_thread([&] {
    if (spec.open_loop) {
      OpenLoop(port, fx, oracle, fx.upload_ops, spec.uploads_per_s, start,
               phase_span, &uploads);
    } else {
      ClosedLoop(port, fx, oracle, fx.upload_ops, size_t(spec.window),
                 phase_span, &uploads);
    }
  });

  std::exception_ptr alert_error;
  try {
    std::this_thread::sleep_until(start);
    for (size_t a = 0; a < fx.alert_ops.size(); ++a) {
      if (spec.alert_period_s > 0) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(a) *
                                                      spec.alert_period_s));
        std::this_thread::sleep_until(due);
        res.lateness_ms.push_back(MsBetween(due, Clock::now()));
      }
      const Zone& zone = fx.zones[size_t(fx.alert_ops[a])];
      Span span("alert", a);
      Oracle::Ticket ticket = oracle->Open();
      const Clock::time_point t = Clock::now();
      Result<api::OutcomeReport> r = [&] {
        Span call("net.AlertClient::ProcessAlertBundle", a);
        return client.ProcessAlertBundle(zone.bundle);
      }();
      const double ms = MsBetween(t, Clock::now());
      oracle->Close(&ticket);
      counts->alerts += 1;
      if (!r.ok()) {
        counts->alerts_failed += 1;
        continue;
      }
      res.alert_ms.push_back(ms);
      res.cache_hits += r->token_cache_hits;
      res.cache_misses += r->token_cache_misses;
      Span check("oracle.CheckLive", a);
      oracle->CheckLive(ticket, zone, *r);
    }
  } catch (...) {
    alert_error = std::current_exception();
  }
  upload_thread.join();
  // Uploads whose connection failed before their ack stay unresolved.
  oracle->AbandonPending();
  const Clock::time_point end = Clock::now();
  res.cpu_s = CpuSeconds() - cpu0;
  res.wall_s = MsBetween(start, end) / 1e3;
  if (traced) Tracer::Get().Close(phase_span);
  Tracer::Get().Enable(false);
  if (alert_error) std::rethrow_exception(alert_error);

  if (uploads.error) std::rethrow_exception(uploads.error);
  counts->uploads += uploads.attempted;
  counts->uploads_failed += uploads.failed;
  res.upload_ms = std::move(uploads.latency_ms);
  res.lateness_ms.insert(res.lateness_ms.end(), uploads.lateness_ms.begin(),
                         uploads.lateness_ms.end());
  const Clock::time_point last_ack =
      res.upload_ms.empty() ? start : uploads.last_ack;
  res.upload_s = MsBetween(start, last_ack) / 1e3;
  res.after = live->server->stats();
  CheckedAlert(&client, fx, *oracle, counts);  // quiescent check
  return res;
}

/// Folds the log into a snapshot and appends a fixed tail: each user's
/// final ciphertext, cycled, `spec.tail_records` times. The resident
/// state is unchanged; only the WAL the restart replays is fixed.
void RebuildTail(const Live& live) {
  const Fixture& fx = live.fx;
  api::LogBackedStore::Options options = StoreOptions(*fx.spec);
  options.compact_log_bytes = 0;
  options.fsync_batch_max = 0;
  auto store = api::LogBackedStore::Open(live.dir, fx.group, options).value();
  SLOC_CHECK(store->LoadAllShards().ok());
  SLOC_CHECK(store->Compact().ok());
  const std::vector<int> cells = live.oracle->AckedCells();
  std::vector<hve::Ciphertext> cts;
  for (int cell : cells) {
    const int p = PoolEntryOf(fx, cell);
    cts.push_back(hve::ParseCiphertext(*fx.group, fx.pool_ct[size_t(p)])
                      .value());
  }
  for (int k = 0; k < fx.spec->tail_records; ++k) {
    const size_t u = size_t(k) % cells.size();
    store->Put(int(u) + 1, cts[u]);
  }
  SLOC_CHECK(store->io_status().ok());
}

/// Open + restart + one answered alert; ms.
double RecoverOnce(Live* live, OpCounts* counts) {
  const Clock::time_point t = Clock::now();
  std::unique_ptr<api::LogBackedStore> store = OpenStore(live->fx, live->dir);
  const double open_ms = MsBetween(t, Clock::now());
  std::unique_ptr<net::AlertServer> server =
      StartServer(live->fx, std::move(store));
  net::AlertClient client = net::AlertClient::Connect(server->port()).value();
  CheckedAlert(&client, live->fx, *live->oracle, counts);
  const double ms = MsBetween(t, Clock::now());
  server->Stop();
  std::cout << "restart: " << ms << " ms (open " << open_ms << " ms)\n";
  return ms;
}

/// kRestarts restarts, median ms. When `setup_s` is given, the set-ups still
/// owed (up to kSetupReps) run between the restarts, so both
/// medians draw on several seconds of the run rather than one burst of
/// host noise; otherwise the restarts are 300 ms apart.
double MeasureRecovery(const Args& args, const WorkloadSpec& spec,
                       const std::string& root, Live* live, OpCounts* counts,
                       std::vector<double>* setup_s) {
  std::vector<double> ms;
  for (int rep = 0; rep < kRestarts; ++rep) {
    ms.push_back(RecoverOnce(live, counts));
    if (setup_s != nullptr && int(setup_s->size()) < kSetupReps) {
      Live attempt;
      const std::string dir =
          root + "/store-" + std::to_string(setup_s->size());
      setup_s->push_back(SetUp(args, spec, dir, &attempt, counts));
      attempt.server.reset();
      fs::remove_all(dir);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  }
  return Median(ms);
}

/// The result line. Only runs whose every check passed get here.
void PrintJson(const OpCounts& c, const Metrics& metrics) {
  std::ostringstream out;
  out << std::setprecision(12);
  out << "{\"correct\": true, \"attempted\": " << (c.alerts + c.uploads)
      << ", \"failed\": " << (c.alerts_failed + c.uploads_failed)
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void PrintCounts(const std::string& workload, const OpCounts& c) {
  std::cout << "ops " << workload << ": alert attempted " << c.alerts
            << " failed " << c.alerts_failed << "; upload attempted "
            << c.uploads << " failed " << c.uploads_failed << "\n";
}

/// The upload tail: the median over five consecutive blocks of each
/// block's tail percentile (stats.h BlockTail). Printed and traced, not
/// gated: see perfbench/README.md.
double UploadTail(const PhaseResult& p, int* pct) {
  return BlockTail(p.upload_ms, 5, pct);
}

void EndToEnd(const PhaseResult& p, Metrics* m, bool print) {
  const int alert_pct = TailPercentile(p.alert_ms.size());
  Add(m, "alert_p50_ms", Median(p.alert_ms), "ms");
  Add(m, "alert_tail_ms", Percentile(p.alert_ms, alert_pct), "ms");
  Add(m, "uploads_per_s",
      double(p.upload_ms.size()) / std::max(p.upload_s, 1e-9), "1/s");
  if (print) {
    auto spread = [](const char* what, const std::vector<double>& v) {
      std::cout << what << " ms: n=" << v.size() << " p10 "
                << Percentile(v, 10) << " p50 " << Median(v) << " p90 "
                << Percentile(v, 90) << " p99 " << Percentile(v, 99)
                << " max " << Percentile(v, 100) << "\n";
    };
    spread("alert", p.alert_ms);
    spread("upload", p.upload_ms);
    std::cout << "upload p50 " << Median(p.upload_ms) << " ms (not gated)\n";
    int upload_pct = 0;
    const double upload_tail = UploadTail(p, &upload_pct);
    std::cout << "alert tail = p" << alert_pct << "; upload tail = p"
              << upload_pct << " (median of 5 block tails from 200 samples): "
              << upload_tail << " ms (not gated); phase " << p.wall_s
              << " s, uploads over " << p.upload_s << " s\n";
  }
}

int RunUntraced(const Args& args, const WorkloadSpec& spec,
                const std::string& root) {
  OpCounts counts;
  Live live;
  std::vector<double> setup_s = {
      SetUp(args, spec, root + "/store", &live, &counts)};
  PhaseResult phase = RunPhase(&live, &counts, false);
  live.server->Stop();
  live.server.reset();
  if (spec.tail_records > 0) RebuildTail(live);
  const double recovery_ms =
      MeasureRecovery(args, spec, root, &live, &counts, &setup_s);
  std::cout << "setup: " << setup_s.size() << " reps, median "
            << Median(setup_s) << " s\n";

  Metrics m;
  EndToEnd(phase, &m, true);
  Add(&m, "recovery_ms", recovery_ms, "ms");
  Add(&m, "setup_s", Median(setup_s), "s");
  Add(&m, "rss_peak_mb", VmHwmMb(), "MiB");
  for (const Metric& x : m) {
    std::cout << "  " << std::left << std::setw(16) << x.name << " "
              << x.value << " " << x.unit << "\n";
  }
  PrintCounts(spec.name, counts);
  PrintJson(counts, m);
  return 0;
}

/// The other workload field size for the ladder (32 <-> 120 bits).
size_t OtherBits(size_t bits) { return bits == 32 ? 120 : 32; }

void Ladder(const std::string& tag, const UnitCosts& u, double predicted_ms,
            double measured_ms, double user_us, Metrics* m) {
  const std::string p = "ladder." + tag + ".";
  Add(m, p + "fp_mul_ns", u.fp_mul_ns, "ns");
  Add(m, p + "fp2_mul_ns", u.fp2_mul_ns, "ns");
  Add(m, p + "miller_walk_us", u.walk_us, "us");
  Add(m, p + "final_exp_us", u.final_exp_us, "us");
  Add(m, p + "query_us", u.walk_us + u.batch_final_exp_us, "us");
  Add(m, p + "user_us", user_us, "us");
  Add(m, p + "alert_predicted_ms", predicted_ms, "ms");
  Add(m, p + "alert_measured_ms", measured_ms, "ms");
}

struct TwinSummary {
  double process_ms = 0.0, predicted_ms = 0.0, fit = 0.0, user_us = 0.0;
  double queries = 0.0, pairings = 0.0;
};

TwinSummary Summarize(const TwinSample& twin, const UnitCosts& units,
                      size_t residents) {
  TwinSummary s;
  std::vector<double> predicted, queries, pairings;
  double sum_process = 0.0, sum_predicted = 0.0;
  const unsigned threads = TwinOptions().num_threads;
  for (size_t i = 0; i < twin.outcomes.size(); ++i) {
    predicted.push_back(PredictAlertMs(units, twin.outcomes[i], threads));
    queries.push_back(double(twin.outcomes[i].queries));
    pairings.push_back(double(twin.outcomes[i].pairings));
    sum_process += twin.process_ms[i];
    sum_predicted += predicted.back();
  }
  s.process_ms = Median(twin.process_ms);
  s.predicted_ms = Median(predicted);
  s.fit = sum_process / std::max(sum_predicted, 1e-9);
  s.user_us = s.process_ms * 1e3 / double(std::max<size_t>(residents, 1));
  s.queries = Mean(queries);
  s.pairings = Mean(pairings);
  return s;
}

int RunTraced(const Args& args, const WorkloadSpec& spec,
              const std::string& root) {
  OpCounts counts;
  Live live;
  const double setup_s =
      SetUp(args, spec, root + "/store", &live, &counts);
  std::cout << "setup: " << setup_s << " s\n";

  // The same fixed operation lists, first untraced, then traced.
  PhaseResult plain = RunPhase(&live, &counts, false);
  PhaseResult traced = RunPhase(&live, &counts, true);
  Metrics plain_m, traced_m;
  EndToEnd(plain, &plain_m, true);
  EndToEnd(traced, &traced_m, false);

  Tracer::Get().Enable(true);
  Metrics m;
  const Fixture& fx = live.fx;
  const std::vector<int> final_cells = live.oracle->AckedCells();

  // net: idle-server unpipelined upload round trips. Each re-sends the
  // user's current ciphertext, so the resident state does not change.
  {
    Span layer("probe.net");
    net::AlertClient client =
        net::AlertClient::Connect(live.server->port()).value();
    std::vector<double> us;
    for (int i = 0; i < 64; ++i) {
      const int user = 1 + i % int(final_cells.size());
      Move move{user, PoolEntryOf(fx, final_cells[size_t(user - 1)])};
      Span s("net.AlertClient::SubmitUpload", uint64_t(i));
      const Clock::time_point t = Clock::now();
      api::SubmitAck ack = client.SubmitUpload(UploadFrame(fx, move)).value();
      us.push_back(MsBetween(t, Clock::now()) * 1e3);
      if (ack.accepted != 1) throw CheckFailure("idle upload rejected");
    }
    Add(&m, "net.upload_rtt_us", Median(us), "us");
  }

  // alert: in-process twin over the final residents, same bundles.
  std::vector<int> sample(fx.alert_ops.begin(),
                          fx.alert_ops.begin() +
                              std::min<size_t>(fx.alert_ops.size(), 24));
  TwinSample twin = RunTwin(fx, *live.oracle, final_cells, sample);
  const std::vector<int> unit_zones(
      sample.begin(), sample.begin() + std::min<size_t>(4, sample.size()));
  UnitCosts units = MeasureUnits(fx, final_cells, unit_zones);
  TwinSummary own = Summarize(twin, units, final_cells.size());

  // Per alert: the untraced round trip minus the twin's in-process time
  // for the same bundle (the first alerts of the list, in order).
  std::vector<double> overhead;
  for (size_t i = 0; i < twin.process_ms.size() && i < plain.alert_ms.size();
       ++i) {
    overhead.push_back(plain.alert_ms[i] - twin.process_ms[i]);
  }
  Add(&m, "net.alert_overhead_ms", Median(overhead), "ms");
  const double drains =
      double(plain.after.ingest_drains - plain.before.ingest_drains);
  Add(&m, "net.ingest_batch_mean",
      double(plain.after.uploads_accepted - plain.before.uploads_accepted) /
          std::max(drains, 1.0),
      "uploads");
  Add(&m, "net.reads_paused",
      double(plain.after.reads_paused - plain.before.reads_paused), "count");
  Add(&m, "alert.process_ms", own.process_ms, "ms");
  double sum_ms = 0.0, sum_q = 0.0;
  for (size_t i = 0; i < twin.outcomes.size(); ++i) {
    sum_ms += twin.process_ms[i];
    sum_q += double(twin.outcomes[i].queries);
  }
  Add(&m, "alert.us_per_query", sum_ms * 1e3 / std::max(sum_q, 1.0), "us");
  Add(&m, "alert.queries_per_alert", own.queries, "count");
  Add(&m, "alert.pairings_per_alert", own.pairings, "count");

  double tokens = 0.0, bits = 0.0;
  for (int z : fx.alert_ops) {
    const Recount r = CountAlert(fx.zones[size_t(z)], {}, fx.cell_index);
    tokens += double(r.tokens);
    bits += double(r.non_star_bits);
  }
  Add(&m, "encoders.tokens_per_alert", tokens / double(fx.alert_ops.size()),
      "count");
  Add(&m, "encoders.non_star_bits_per_alert",
      bits / double(fx.alert_ops.size()), "count");

  Add(&m, "hve.token_cache_hit_ratio",
      double(plain.cache_hits) /
          std::max(1.0, double(plain.cache_hits + plain.cache_misses)),
      "ratio");
  Add(&m, "hve.precompile_ms_per_token", units.precompile_ms, "ms");
  ProbeHve(fx, &m);
  Add(&m, "pairing.miller_walk_us", units.walk_us, "us");
  Add(&m, "pairing.final_exp_us", units.final_exp_us, "us");
  Add(&m, "pairing.batch_final_exp_us_per_elem", units.batch_final_exp_us,
      "us");
  Add(&m, "field.fp_mul_ns", units.fp_mul_ns, "ns");
  Add(&m, "field.fp2_mul_ns", units.fp2_mul_ns, "ns");
  Add(&m, "field.fp2_sqr_ns", units.fp2_sqr_ns, "ns");
  Add(&m, "model.alert_predicted_ms", own.predicted_ms, "ms");
  Add(&m, "model.alert_fit", own.fit, "ratio");

  ProbeStoreWrites(fx, root + "/probe", &m);
  live.server->Stop();
  live.server.reset();
  if (spec.tail_records > 0) RebuildTail(live);
  ProbeStoreAsLeft(fx, live.dir, &m);
  const double recovery_ms =
      MeasureRecovery(args, spec, root, &live, &counts, nullptr);

  // Upload latency is reported here, not gated: see perfbench/README.md.
  Add(&m, "service.upload_p50_ms", Median(plain.upload_ms), "ms");
  int upload_pct = 0;
  Add(&m, "service.upload_tail_ms", UploadTail(plain, &upload_pct), "ms");
  Add(&m, "proc.cpu_busy_cores", plain.cpu_s / plain.wall_s, "cores");
  Add(&m, "gen.lateness_ms", Median(plain.lateness_ms), "ms");

  // The ladder at both field sizes: this workload's own field, and a
  // small twin (16 residents, 4 zones) at the other size.
  {
    Span layer("probe.ladder");
    const std::string own_tag = "b" + std::to_string(spec.prime_bits);
    Ladder(own_tag, units, own.predicted_ms, own.process_ms, own.user_us, &m);
    const size_t other = OtherBits(spec.prime_bits);
    Fixture mini = BuildFixture(spec, args.seed, 1, other, 16);
    Oracle mini_oracle(mini.InitialCells(), mini.cell_index);
    const std::vector<int> zones(mini.alert_ops.begin(),
                                 mini.alert_ops.begin() + 4);
    const std::vector<int> cells = mini.InitialCells();
    TwinSample mini_twin = RunTwin(mini, mini_oracle, cells, zones);
    UnitCosts mini_units = MeasureUnits(mini, cells, zones);
    TwinSummary s = Summarize(mini_twin, mini_units, cells.size());
    Ladder("b" + std::to_string(other), mini_units, s.predicted_ms,
           s.process_ms, s.user_us, &m);
  }
  Tracer::Get().Enable(false);

  // Tracing overhead: traced minus untraced medians of the same lists.
  const double alert_plain = Value(plain_m, "alert_p50_ms");
  const double alert_traced = Value(traced_m, "alert_p50_ms");
  const double upload_plain = Median(plain.upload_ms);
  const double upload_traced = Median(traced.upload_ms);
  Add(&m, "trace.alert_overhead_ms", alert_traced - alert_plain, "ms");
  Add(&m, "trace.upload_overhead_ms", upload_traced - upload_plain, "ms");
  std::cout << "tracing overhead: alert p50 " << alert_plain << " -> "
            << alert_traced << " ms, upload p50 " << upload_plain << " -> "
            << upload_traced << " ms; " << Tracer::Get().size()
            << " spans; recovery " << recovery_ms << " ms\n";
  std::cout << "self time by span (ms):\n";
  for (const auto& [name, t] : Tracer::Get().SelfTimes()) {
    std::cout << "  " << std::left << std::setw(40) << name << " calls "
              << std::setw(6) << t.calls << " total " << std::setw(10)
              << t.total_ms << " self " << t.self_ms << "\n";
  }
  if (!args.out_dir.empty()) {
    fs::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + spec.name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!Tracer::Get().WriteJsonLines(path)) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cout << "spans written to " << path << "\n";
  }
  for (const Metric& x : m) {
    std::cout << "  " << std::left << std::setw(36) << x.name << " "
              << x.value << " " << x.unit << "\n";
  }
  PrintCounts(spec.name, counts);
  PrintJson(counts, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  TempRoot root(args.tmp_root);
  try {
    return args.trace ? RunTraced(args, spec, root.path)
                      : RunUntraced(args, spec, root.path);
  } catch (const CheckFailure& e) {
    std::cout.flush();
    std::cerr << "CHECK FAILED (" << spec.name << ", seed " << args.seed
              << "): " << e.what() << "\n";
    return 1;
  }
}
