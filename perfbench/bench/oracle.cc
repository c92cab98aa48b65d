#include "oracle.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

bool PatternMatches(const std::string& pattern, const std::string& index) {
  if (pattern.size() != index.size()) return false;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != '*' && pattern[i] != index[i]) return false;
  }
  return true;
}

uint64_t NonStar(const std::string& pattern) {
  return uint64_t(std::count_if(pattern.begin(), pattern.end(),
                                [](char c) { return c != '*'; }));
}

std::string Ids(const std::vector<int>& ids) {
  std::ostringstream out;
  for (size_t i = 0; i < ids.size() && i < 12; ++i) {
    out << (i ? "," : "") << ids[i];
  }
  if (ids.size() > 12) out << ",...";
  return out.str();
}

/// One user's share of the recount: tokens in bundle order, one query
/// of 2|J|+1 pairings each, up to the first plaintext match.
struct UserCount {
  bool matched = false;
  uint64_t queries = 0;
  uint64_t pairings = 0;
};

UserCount CountUser(const Zone& zone, const std::string& index) {
  UserCount c;
  for (const std::string& p : zone.patterns) {
    c.queries += 1;
    c.pairings += 2 * NonStar(p) + 1;
    if (PatternMatches(p, index)) {
      c.matched = true;
      break;
    }
  }
  return c;
}

}  // namespace

Recount CountAlert(const Zone& zone, const std::vector<int>& cells,
                   const std::vector<std::string>& cell_index) {
  Recount r;
  r.tokens = zone.patterns.size();
  for (const std::string& p : zone.patterns) r.non_star_bits += NonStar(p);
  for (size_t u = 0; u < cells.size(); ++u) {
    const UserCount c = CountUser(zone, cell_index[size_t(cells[u])]);
    r.queries += c.queries;
    r.pairings += c.pairings;
    if (c.matched) r.notified.push_back(int(u) + 1);
  }
  return r;
}

Oracle::Oracle(std::vector<int> initial_cells,
               std::vector<std::string> cell_index)
    : cell_index_(std::move(cell_index)),
      acked_(std::move(initial_cells)),
      pending_(acked_.size()),
      failed_(acked_.size()) {}

void Oracle::Sent(int user, int cell) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[size_t(user - 1)].push_back(cell);
  sends_.emplace_back(user, cell);
}

void Oracle::Acked(int user, int cell) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int>& pending = pending_[size_t(user - 1)];
  if (pending.empty() || pending.front() != cell) {
    throw CheckFailure("oracle: ack for user " + std::to_string(user) +
                       " arrived out of send order");
  }
  pending.erase(pending.begin());
  acked_[size_t(user - 1)] = cell;
  // This upload was applied after any earlier failed one.
  failed_[size_t(user - 1)].clear();
}

void Oracle::Failed(int user, int cell) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int>& pending = pending_[size_t(user - 1)];
  if (pending.empty() || pending.front() != cell) {
    throw CheckFailure("oracle: failed ack for user " + std::to_string(user) +
                       " arrived out of send order");
  }
  pending.erase(pending.begin());
  failed_[size_t(user - 1)].push_back(cell);
}

void Oracle::AbandonPending() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t u = 0; u < pending_.size(); ++u) {
    failed_[u].insert(failed_[u].end(), pending_[u].begin(),
                      pending_[u].end());
    pending_[u].clear();
  }
}

Oracle::Ticket Oracle::Open() const {
  std::lock_guard<std::mutex> lock(mu_);
  Ticket t;
  t.acked = acked_;
  t.pending = pending_;
  for (size_t u = 0; u < failed_.size(); ++u) {
    t.pending[u].insert(t.pending[u].end(), failed_[u].begin(),
                        failed_[u].end());
  }
  t.first_send = sends_.size();
  return t;
}

void Oracle::Close(Ticket* ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  ticket->end_send = sends_.size();
}

sloc::api::OutcomeReport Oracle::MaybeTamper(
    const sloc::api::OutcomeReport& outcome) const {
  sloc::api::OutcomeReport out = outcome;
  switch (tamper_) {
    case Tamper::kNone:
    case Tamper::kRejectAck:
      break;
    case Tamper::kAddUser: {
      // The first user id not notified (a non-resident if all are).
      int extra = 1;
      while (std::binary_search(out.notified_users.begin(),
                                out.notified_users.end(), extra)) {
        ++extra;
      }
      out.notified_users.push_back(extra);
      std::sort(out.notified_users.begin(), out.notified_users.end());
      break;
    }
    case Tamper::kDropUser:
      if (!out.notified_users.empty()) out.notified_users.erase(
          out.notified_users.begin());
      break;
    case Tamper::kPairings:
      out.pairings += 1;
      break;
  }
  tamper_ = Tamper::kNone;
  return out;
}

void Oracle::CheckLive(const Ticket& ticket, const Zone& zone,
                       const sloc::api::OutcomeReport& raw) const {
  const sloc::api::OutcomeReport outcome = MaybeTamper(raw);
  const size_t n = ticket.acked.size();
  std::vector<std::vector<int>> possible(n);
  for (size_t u = 0; u < n; ++u) {
    possible[u] = ticket.pending[u];
    possible[u].push_back(ticket.acked[u]);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = ticket.first_send; i < ticket.end_send; ++i) {
      possible[size_t(sends_[i].first - 1)].push_back(sends_[i].second);
    }
  }
  std::vector<bool> notified(n + 1, false);
  for (int u : outcome.notified_users) {
    if (u < 1 || size_t(u) > n) {
      throw CheckFailure("oracle: notified non-resident user " +
                         std::to_string(u));
    }
    notified[size_t(u)] = true;
  }
  std::vector<int> missed, wrong;
  for (size_t u = 0; u < n; ++u) {
    bool all_in = true, all_out = true;
    for (int c : possible[u]) {
      (zone.in_zone[size_t(c)] ? all_out : all_in) = false;
    }
    if (all_in && !notified[u + 1]) missed.push_back(int(u) + 1);
    if (all_out && notified[u + 1]) wrong.push_back(int(u) + 1);
  }
  if (!missed.empty() || !wrong.empty()) {
    throw CheckFailure("oracle: live alert missed users [" + Ids(missed) +
                       "] and notified users outside the zone [" +
                       Ids(wrong) + "]");
  }
}

void Oracle::CheckExact(const Zone& zone, const std::vector<int>& cells,
                        const sloc::api::OutcomeReport& outcome) const {
  std::vector<std::vector<int>> possible;
  for (int c : cells) possible.push_back({c});
  CheckCells(zone, possible, outcome);
}

void Oracle::CheckQuiescent(const Zone& zone,
                            const sloc::api::OutcomeReport& outcome) const {
  std::vector<std::vector<int>> possible;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t u = 0; u < acked_.size(); ++u) {
      if (!pending_[u].empty()) {
        throw CheckFailure("oracle: quiescent check with uploads in flight");
      }
      possible.push_back(failed_[u]);
      possible.back().push_back(acked_[u]);
    }
  }
  CheckCells(zone, possible, outcome);
}

void Oracle::CheckCells(const Zone& zone,
                        const std::vector<std::vector<int>>& cells,
                        const sloc::api::OutcomeReport& raw) const {
  const sloc::api::OutcomeReport outcome = MaybeTamper(raw);
  const size_t n = cells.size();
  std::vector<bool> notified(n + 1, false);
  std::vector<int> outside;
  for (int u : outcome.notified_users) {
    if (u < 1 || size_t(u) > n) {
      outside.push_back(u);
    } else {
      notified[size_t(u)] = true;
    }
  }
  // A user is notified exactly when its cell matches. With several
  // possible cells, only those that agree with the notification count,
  // and the outcome's totals must be one of the sums they allow.
  using Totals = std::set<std::pair<uint64_t, uint64_t>>;  // queries, pairings
  Totals totals = {{0, 0}};
  std::vector<int> missed, wrong;
  for (size_t u = 0; u < n; ++u) {
    const bool told = notified[u + 1];
    bool can_match = false, can_miss = false;
    Totals options;
    for (int c : cells[u]) {
      const UserCount count = CountUser(zone, cell_index_[size_t(c)]);
      (count.matched ? can_match : can_miss) = true;
      if (count.matched == told) options.emplace(count.queries, count.pairings);
    }
    if (!told && !can_miss) missed.push_back(int(u) + 1);
    if (told && !can_match) wrong.push_back(int(u) + 1);
    Totals next;
    for (const auto& t : totals) {
      for (const auto& o : options) {
        next.emplace(t.first + o.first, t.second + o.second);
      }
    }
    totals = std::move(next);
  }

  const Recount fixed = CountAlert(zone, {}, cell_index_);
  std::ostringstream diff;
  if (!outside.empty()) diff << " notified non-residents [" << Ids(outside)
                             << "];";
  if (!missed.empty()) diff << " missed users [" << Ids(missed) << "];";
  if (!wrong.empty()) {
    diff << " notified users outside the zone [" << Ids(wrong) << "];";
  }
  if (outcome.tokens != fixed.tokens) {
    diff << " tokens " << outcome.tokens << " want " << fixed.tokens << ";";
  }
  if (outcome.non_star_bits != fixed.non_star_bits) {
    diff << " non_star_bits " << outcome.non_star_bits << " want "
         << fixed.non_star_bits << ";";
  }
  if (diff.str().empty() &&
      totals.count({outcome.queries, outcome.pairings}) == 0) {
    if (totals.size() == 1) {
      const auto [queries, pairings] = *totals.begin();
      if (outcome.queries != queries) {
        diff << " queries " << outcome.queries << " want " << queries << ";";
      }
      if (outcome.pairings != pairings) {
        diff << " pairings " << outcome.pairings << " want " << pairings
             << ";";
      }
    } else {
      diff << " queries " << outcome.queries << " and pairings "
           << outcome.pairings << " match none of the " << totals.size()
           << " totals the failed uploads allow;";
    }
  }
  if (outcome.ciphertexts_scanned != n) {
    diff << " scanned " << outcome.ciphertexts_scanned << " want " << n
         << ";";
  }
  if (!diff.str().empty()) {
    throw CheckFailure("oracle: quiescent alert mismatch:" + diff.str());
  }
}

std::vector<int> Oracle::AckedCells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_;
}

}  // namespace perfbench
