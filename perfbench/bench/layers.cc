#include "layers.h"

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <utility>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "common/rng.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "pairing/miller.h"
#include "trace.h"

namespace perfbench {

using namespace sloc;

namespace {

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Nanoseconds per call of a serial dependency chain of `op`.
template <typename Op>
double ChainNs(const char* span, size_t iters, Op op) {
  for (size_t i = 0; i < iters / 10; ++i) op();
  Span s(span);
  const Clock::time_point t = Clock::now();
  for (size_t i = 0; i < iters; ++i) op();
  return MsSince(t) * 1e6 / double(iters);
}

std::vector<hve::Token> TokensOf(const Fixture& fx, const Zone& zone) {
  const api::TokenBundle bundle = api::DecodeTokenBundle(zone.bundle).value();
  std::vector<hve::Token> tokens;
  for (const auto& blob : bundle.tokens) {
    tokens.push_back(hve::ParseToken(*fx.group, blob).value());
  }
  return tokens;
}

size_t DirBytes(const std::string& dir, bool wal_only) {
  size_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (wal_only && name.rfind("wal", 0) != 0) continue;
    total += size_t(entry.file_size());
  }
  return total;
}

}  // namespace

int PoolEntryOf(const Fixture& fx, int cell) {
  for (size_t p = 0; p < fx.pool_cell.size(); ++p) {
    if (fx.pool_cell[p] == cell) return int(p);
  }
  return -1;
}

UnitCosts MeasureUnits(const Fixture& fx, const std::vector<int>& cells,
                       const std::vector<int>& zone_ids) {
  Span layer("probe.pairing");
  const PairingGroup& group = *fx.group;
  const Fp& fp = group.fp();
  const Fp2& fp2 = group.fp2();
  UnitCosts u;

  {
    Span field("probe.field");
    Fp::Elem x = fp.FromU64(0x9e3779b97f4a7c15ULL % 1000003);
    const Fp::Elem y = fp.FromU64(0xabcdef12345ULL % 999983);
    Fp::Elem t = fp.Zero();
    u.fp_mul_ns = ChainNs("field.Fp::Mul", 400000, [&] {
      fp.Mul(x, y, &t);
      std::swap(x, t);
    });
    Fp2Elem a = fp2.FromBigInts(BigInt::FromU64(12345), BigInt::FromU64(678));
    const Fp2Elem b =
        fp2.FromBigInts(BigInt::FromU64(98765), BigInt::FromU64(4321));
    Fp2Elem c = fp2.Zero();
    u.fp2_mul_ns = ChainNs("field.Fp2::Mul", 200000, [&] {
      fp2.Mul(a, b, &c);
      std::swap(a, c);
    });
    u.fp2_sqr_ns = ChainNs("field.Fp2::Sqr", 200000, [&] {
      fp2.Sqr(a, &c);
      std::swap(a, c);
    });
  }

  // Token compilation and walks over the views of every resident.
  std::vector<hve::Token> tokens;
  for (int z : zone_ids) {
    for (hve::Token& t : TokensOf(fx, fx.zones[size_t(z)])) {
      tokens.push_back(std::move(t));
    }
  }
  std::vector<hve::PrecompiledToken> compiled;
  {
    Span s("hve.PrecompileToken");
    const Clock::time_point t = Clock::now();
    for (const hve::Token& token : tokens) {
      compiled.push_back(hve::PrecompileToken(group, token));
    }
    u.precompile_ms = MsSince(t) / double(std::max<size_t>(1, tokens.size()));
  }
  std::vector<const hve::PrecompiledToken*> ptrs;
  for (const auto& c : compiled) ptrs.push_back(&c);
  const hve::EvalLayout layout = hve::MakeEvalLayout(fx.ta->width(), ptrs);
  std::vector<hve::EvalView> views;
  for (int cell : cells) {
    const int p = PoolEntryOf(fx, cell);
    hve::Ciphertext ct =
        hve::ParseCiphertext(group, fx.pool_ct[size_t(p)]).value();
    views.push_back(hve::MakeEvalView(group, layout, ct).value());
  }

  hve::QueryScratch scratch;
  std::vector<Fp2Elem> ratios;
  std::vector<std::pair<double, double>> samples;  // (pairs, us)
  const size_t max_walks = 600;
  {
    Span s("pairing.MillerWalk");
    for (size_t v = 0; v < views.size() && ratios.size() < max_walks; ++v) {
      for (size_t k = 0; k < compiled.size(); ++k) {
        const Clock::time_point t = Clock::now();
        ratios.push_back(hve::QueryMillerPrecompiledView(
                             group, compiled[k], layout, views[v], &scratch)
                             .value());
        samples.emplace_back(2.0 * double(compiled[k].positions.size()) + 1,
                             MsSince(t) * 1e3);
      }
    }
  }
  double sp = 0, st = 0, spp = 0, spt = 0;
  for (auto [p, t] : samples) {
    sp += p;
    st += t;
    spp += p * p;
    spt += p * t;
  }
  const double n = double(samples.size());
  u.walk_us = st / n;
  const double var = spp / n - (sp / n) * (sp / n);
  if (var > 1e-9) {
    u.walk_pair_us = (spt / n - (sp / n) * (st / n)) / var;
    u.walk_base_us = st / n - u.walk_pair_us * sp / n;
  } else {
    u.walk_pair_us = st / sp;
    u.walk_base_us = 0.0;
  }

  const BigInt& cofactor = group.params().cofactor;
  {
    Span s("pairing.FinalExponentiation");
    const size_t reps = std::min<size_t>(ratios.size(), 200);
    const Clock::time_point t = Clock::now();
    for (size_t i = 0; i < reps; ++i) {
      Fp2Elem out = FinalExponentiation(fp2, ratios[i], cofactor);
      (void)out;
    }
    u.final_exp_us = MsSince(t) * 1e3 / double(reps);
  }
  {
    Span s("pairing.BatchFinalExponentiation");
    PairingScratch batch_scratch;
    std::vector<Fp2Elem> batch = ratios;
    const Clock::time_point t = Clock::now();
    BatchFinalExponentiation(fp2, cofactor, &batch, &batch_scratch);
    u.batch_final_exp_us = MsSince(t) * 1e3 / double(batch.size());
  }
  return u;
}

TwinSample RunTwin(const Fixture& fx, const Oracle& oracle,
                   const std::vector<int>& cells,
                   const std::vector<int>& zone_ids) {
  Span layer("probe.alert");
  alert::ServiceProvider twin(fx.group, fx.ta->marker(), api::MakeStore(4),
                              TwinOptions());
  for (size_t u = 0; u < cells.size(); ++u) {
    const int p = PoolEntryOf(fx, cells[u]);
    SLOC_CHECK(twin.SubmitLocation(int(u) + 1, fx.pool_ct[size_t(p)]).ok());
  }
  TwinSample out;
  for (size_t i = 0; i < zone_ids.size(); ++i) {
    const Zone& zone = fx.zones[size_t(zone_ids[i])];
    std::vector<uint8_t> frame;
    {
      Span s("alert.ProcessAlertBundle", i);
      const Clock::time_point t = Clock::now();
      frame = twin.ProcessAlertBundle(zone.bundle).value();
      out.process_ms.push_back(MsSince(t));
    }
    api::OutcomeReport outcome = api::DecodeOutcomeReport(frame).value();
    oracle.CheckExact(zone, cells, outcome);
    out.outcomes.push_back(std::move(outcome));
  }
  return out;
}

double PredictAlertMs(const UnitCosts& units,
                      const api::OutcomeReport& outcome, unsigned threads) {
  const double walks_us = double(outcome.queries) * units.walk_base_us +
                          double(outcome.pairings) * units.walk_pair_us;
  const double exp_us = double(outcome.queries) * units.batch_final_exp_us;
  const double compile_ms =
      double(outcome.token_cache_misses) * units.precompile_ms;
  return (compile_ms + (walks_us + exp_us) / 1e3) / double(threads);
}

void ProbeHve(const Fixture& fx, Metrics* out) {
  Span layer("probe.hve");
  const PairingGroup& group = *fx.group;
  {
    std::vector<double> us;
    Span s("hve.ParseCiphertext");
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& blob : fx.pool_ct) {
        const Clock::time_point t = Clock::now();
        auto ct = hve::ParseCiphertext(group, blob);
        us.push_back(MsSince(t) * 1e3);
        SLOC_CHECK(ct.ok());
      }
    }
    Add(out, "hve.parse_ct_us", Median(us), "us");
  }
  {
    auto rng = std::make_shared<Rng>(99);
    alert::MobileUser user =
        alert::MobileUser::JoinFromAnnouncement(
            1, fx.group, fx.ta->PublicKeyAnnouncement(), fx.ta->marker(),
            [rng] { return rng->NextU64(); })
            .value();
    std::vector<double> ms;
    Span s("hve.EncryptLocation");
    for (size_t i = 0; i < 6; ++i) {
      const int cell = fx.pool_cell[i % fx.pool_cell.size()];
      const Clock::time_point t = Clock::now();
      SLOC_CHECK(user.EncryptLocation(fx.cell_index[size_t(cell)]).ok());
      ms.push_back(MsSince(t));
    }
    Add(out, "hve.encrypt_ms", Median(ms), "ms");
  }
  {
    std::vector<double> ms;
    Span s("hve.IssueAlertBundle");
    for (size_t z = 0; z < std::min<size_t>(fx.zones.size(), 6); ++z) {
      const Clock::time_point t = Clock::now();
      SLOC_CHECK(fx.ta->IssueAlertBundle(1000 + z, fx.zones[z].cells).ok());
      ms.push_back(MsSince(t));
    }
    Add(out, "hve.issue_ms_per_alert", Median(ms), "ms");
  }
}

void ProbeStoreWrites(const Fixture& fx, const std::string& dir,
                      Metrics* out) {
  Span layer("probe.api");
  std::filesystem::create_directories(dir);
  std::vector<hve::Ciphertext> cts;
  for (const auto& blob : fx.pool_ct) {
    cts.push_back(hve::ParseCiphertext(*fx.group, blob).value());
  }
  const int users = fx.num_users();
  {
    auto store = api::LogBackedStore::Open(dir + "/api", fx.group,
                                           StoreOptions(*fx.spec))
                     .value();
    std::vector<double> put_us;
    {
      Span s("api.Put");
      for (int i = 0; i < 256; ++i) {
        hve::Ciphertext ct = cts[size_t(i) % cts.size()];
        const Clock::time_point t = Clock::now();
        store->Put(1 + i % users, std::move(ct));
        put_us.push_back(MsSince(t) * 1e3);
      }
    }
    Add(out, "api.put_us", Median(put_us), "us");

    std::vector<double> wait_us;
    {
      Span s("api.NotifyDurable");
      for (int i = 0; i < 48; ++i) {
        const Clock::time_point t = Clock::now();
        store->Put(1 + i % users, cts[size_t(i) % cts.size()]);
        std::promise<void> fired;
        store->NotifyDurable(store->CurrentTicket(),
                             [&fired](Status) { fired.set_value(); });
        fired.get_future().wait();
        wait_us.push_back(MsSince(t) * 1e3);
      }
    }
    Add(out, "api.durable_wait_us", Median(wait_us), "us");

    std::vector<double> compact_ms;
    {
      Span s("api.Compact");
      for (int rep = 0; rep < 3; ++rep) {
        for (int i = 0; i < 64; ++i) {
          store->Put(1 + i % users, cts[size_t(i) % cts.size()]);
        }
        const Clock::time_point t = Clock::now();
        SLOC_CHECK(store->Compact().ok());
        compact_ms.push_back(MsSince(t));
      }
    }
    Add(out, "api.compact_ms", Median(compact_ms), "ms");
    SLOC_CHECK(store->io_status().ok());
  }
  {
    auto store = api::LogBackedStore::Open(dir + "/sp", fx.group,
                                           StoreOptions(*fx.spec))
                     .value();
    alert::ServiceProvider sp(fx.group, fx.ta->marker(), std::move(store),
                              TwinOptions());
    std::vector<double> us;
    Span s("alert.SubmitUpload");
    for (int i = 0; i < 128; ++i) {
      api::LocationUpload upload;
      upload.user_id = 1 + i % users;
      upload.ciphertext = fx.pool_ct[size_t(i) % fx.pool_ct.size()];
      const std::vector<uint8_t> frame = api::EncodeLocationUpload(upload);
      const Clock::time_point t = Clock::now();
      SLOC_CHECK(sp.SubmitUpload(frame).ok());
      us.push_back(MsSince(t) * 1e3);
    }
    Add(out, "alert.submit_us", Median(us), "us");
  }
}

void ProbeStoreAsLeft(const Fixture& fx, const std::string& dir,
                      Metrics* out) {
  Span layer("probe.api");
  const double wal = double(DirBytes(dir, true));
  const double disk = double(DirBytes(dir, false));
  double open_ms = 0.0, load_ms = 0.0;
  {
    Span s("api.Open");
    const Clock::time_point t = Clock::now();
    auto store =
        api::LogBackedStore::Open(dir, fx.group, StoreOptions(*fx.spec))
            .value();
    open_ms = MsSince(t);
    Span l("api.LoadAllShards");
    const Clock::time_point t2 = Clock::now();
    SLOC_CHECK(store->LoadAllShards().ok());
    load_ms = MsSince(t2);
  }
  Add(out, "api.open_ms", open_ms, "ms");
  Add(out, "api.materialize_ms", load_ms, "ms");
  Add(out, "api.wal_bytes_at_restart", wal, "bytes");
  Add(out, "api.disk_bytes_per_user",
      disk / double(fx.num_users()), "bytes");
}

}  // namespace perfbench
