#include "checks.hpp"

#include <cstdio>
#include <limits>

namespace pb {

std::string check_conservation(const Ledger& l, bool drained) {
  char buf[256];
  const std::uint64_t accounted =
      l.completed + l.shed + l.dropped + l.outstanding;
  if (accounted != l.offered) {
    std::snprintf(buf, sizeof(buf),
                  "%s: offered %llu != completed %llu + shed %llu + dropped "
                  "%llu + outstanding %llu",
                  l.phase.c_str(), static_cast<unsigned long long>(l.offered),
                  static_cast<unsigned long long>(l.completed),
                  static_cast<unsigned long long>(l.shed),
                  static_cast<unsigned long long>(l.dropped),
                  static_cast<unsigned long long>(l.outstanding));
    return buf;
  }
  if (l.dropped != l.dropped_rt) {
    std::snprintf(buf, sizeof(buf),
                  "%s: %llu submits failed but the runtime counts %llu drops",
                  l.phase.c_str(), static_cast<unsigned long long>(l.dropped),
                  static_cast<unsigned long long>(l.dropped_rt));
    return buf;
  }
  if (drained && l.outstanding != 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s: %llu requests outstanding after quiesce",
                  l.phase.c_str(),
                  static_cast<unsigned long long>(l.outstanding));
    return buf;
  }
  return "";
}

std::string check_identical(const std::string& what, const std::string& a,
                            const std::string& b) {
  if (a.size() != b.size()) {
    return what + ": result sizes differ (" + std::to_string(a.size()) +
           " vs " + std::to_string(b.size()) + " bytes)";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return what + ": results differ at byte " + std::to_string(i);
    }
  }
  return "";
}

std::string check_overload(const std::string& phase, double offered_per_s,
                           double capacity_per_s, std::uint64_t shed) {
  char buf[256];
  if (!(offered_per_s >= 1.4 * capacity_per_s)) {
    std::snprintf(buf, sizeof(buf),
                  "%s: offered %.6g req/s is below 1.4x capacity %.6g req/s",
                  phase.c_str(), offered_per_s, capacity_per_s);
    return buf;
  }
  if (shed == 0) return phase + ": overload but the gate shed nothing";
  return "";
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// One selftest case: `reason` is what the check returned; `want_fail`
/// whether the input was broken.
int expect(const char* name, const std::string& reason, bool want_fail) {
  const bool failed = !reason.empty();
  const bool ok = failed == want_fail;
  std::printf("selftest %-34s %s%s%s\n", name, ok ? "ok" : "WRONG",
              failed ? "  (" : "", failed ? (reason + ")").c_str() : "");
  return ok ? 0 : 1;
}

}  // namespace

int selftest() {
  int bad = 0;
  Ledger good{"phase", 100, 80, 15, 3, 3, 2};
  bad += expect("conservation/good", check_conservation(good, false), false);
  Ledger lost = good;
  lost.completed -= 1;  // one request vanished
  bad += expect("conservation/lost-request", check_conservation(lost, false),
                true);
  Ledger dup = good;
  dup.shed += 1;  // one request counted twice
  bad += expect("conservation/double-count", check_conservation(dup, false),
                true);
  Ledger drops = good;
  drops.dropped_rt += 1;
  bad += expect("conservation/drop-mismatch",
                check_conservation(drops, false), true);
  bad += expect("conservation/undrained", check_conservation(good, true),
                true);
  Ledger drained = good;
  drained.completed += drained.outstanding;
  drained.outstanding = 0;
  bad += expect("conservation/drained", check_conservation(drained, true),
                false);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::string a(reinterpret_cast<const char*>(&nan), sizeof(nan));
  std::string b = a;
  bad += expect("identical/same-nan", check_identical("det", a, b), false);
  b[0] = static_cast<char>(b[0] ^ 1);  // another NaN payload
  bad += expect("identical/nan-payload", check_identical("det", a, b), true);
  bad += expect("identical/length", check_identical("det", a, a + "x"), true);

  bad += expect("overload/good", check_overload("det", 1.5e6, 1e6, 10), false);
  // The "--load 1.5 means 1.5 %" trap: far below capacity.
  bad += expect("overload/under-capacity",
                check_overload("det", 1.5e4, 1e6, 10), true);
  bad += expect("overload/no-shed", check_overload("det", 1.5e6, 1e6, 0),
                true);
  bad += expect("overload/nan-rate", check_overload("det", nan, 1e6, 10),
                true);
  return bad;
}

}  // namespace pb
