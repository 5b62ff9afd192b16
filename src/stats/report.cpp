#include "stats/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/parse.hpp"

namespace euno::stats {

std::string Table::num(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string Table::num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

void Table::print(bool csv) const {
  if (csv) {
    // RFC 4180: cells containing separators, quotes, or line breaks are
    // quoted, with embedded quotes doubled.
    auto emit_cell = [](const std::string& cell) {
      if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        std::fputs(cell.c_str(), stdout);
        return;
      }
      std::fputc('"', stdout);
      for (char ch : cell) {
        if (ch == '"') std::fputc('"', stdout);
        std::fputc(ch, stdout);
      }
      std::fputc('"', stdout);
    };
    auto emit = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        emit_cell(cells[i]);
        std::fputc(i + 1 < cells.size() ? ',' : '\n', stdout);
      }
    };
    emit(headers_);
    for (const auto& r : rows_) emit(r);
    return;
  }
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], r[i].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s%s", static_cast<int>(widths[i]), cells[i].c_str(),
                  i + 1 < cells.size() ? "  " : "\n");
    }
  };
  emit(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  for (std::size_t i = 0; i + 2 < total; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
  for (const auto& r : rows_) emit(r);
}

namespace {

constexpr const char* kUsage =
    "flags: --csv  --quick  --ops=<per-thread>  --keys=<range>  --seed=<n>  "
    "--jobs=<n|auto>  --tree=<registry-name>  --trace=<file>  --json=<file>  "
    "--native  --metrics-interval=<clock-units>  --perf  "
    "--store-shards=<n>  --offered-load=<mops>  --deadline-us=<n>  "
    "--key-domain=<u64|bytes>  --scan-len=<n>\n";

[[noreturn]] void usage_error(const char* arg) {
  std::fprintf(stderr, "unrecognized or malformed flag: %s\n%s", arg, kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(const char* arg, const char* v) {
  std::uint64_t n = 0;
  if (!parse_decimal_u64(v, &n)) usage_error(arg);
  return n;
}

/// Strict positive decimal double ("0.5", "2", "1e-1"); rejects empty,
/// trailing junk, and non-positive / non-finite values.
double parse_positive_double(const char* arg, const char* v) {
  if (*v == '\0' || *v == '-' || *v == '+') usage_error(arg);
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (*end != '\0' || !(d > 0) || !std::isfinite(d)) usage_error(arg);
  return d;
}

int parse_jobs(const char* arg, const char* v) {
  if (std::strcmp(v, "auto") == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (*v == '\0' || *end != '\0') usage_error(arg);
  // Well-formed but out-of-range values clamp to sequential (documented
  // behavior relied on by scripts); only malformed input is rejected.
  return n < 1 ? 1 : static_cast<int>(n);
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (std::strcmp(arg, "--csv") == 0) {
      a.csv = true;
    } else if (std::strcmp(arg, "--quick") == 0) {
      a.quick = true;
    } else if (const char* v = value("--ops=")) {
      a.ops_per_thread = parse_u64(arg, v);
    } else if (const char* v2 = value("--keys=")) {
      a.key_range = parse_u64(arg, v2);
    } else if (const char* v3 = value("--seed=")) {
      a.seed = parse_u64(arg, v3);
    } else if (const char* v4 = value("--jobs=")) {
      a.jobs = parse_jobs(arg, v4);
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      a.jobs = parse_jobs(arg, argv[++i]);
    } else if (const char* v5 = value("--trace=")) {
      if (*v5 == '\0') usage_error(arg);
      a.trace_path = v5;
    } else if (const char* v6 = value("--json=")) {
      if (*v6 == '\0') usage_error(arg);
      a.json_path = v6;
    } else if (const char* v7 = value("--tree=")) {
      if (*v7 == '\0') usage_error(arg);
      a.tree = v7;
    } else if (std::strcmp(arg, "--native") == 0) {
      a.native = true;
    } else if (const char* v8 = value("--metrics-interval=")) {
      a.metrics_interval = parse_u64(arg, v8);
      if (a.metrics_interval == 0) usage_error(arg);
    } else if (std::strcmp(arg, "--perf") == 0) {
      a.perf = true;
    } else if (const char* v9 = value("--store-shards=")) {
      // Degenerate shard counts are config bugs, not requests: 0 would
      // silently run the single-tree path, huge counts exhaust memory.
      const std::uint64_t n = parse_u64(arg, v9);
      if (n == 0 || n > 4096) usage_error(arg);
      a.store_shards = static_cast<int>(n);
    } else if (const char* v10 = value("--offered-load=")) {
      a.offered_load = parse_positive_double(arg, v10);
    } else if (const char* v11 = value("--deadline-us=")) {
      a.deadline_us = parse_u64(arg, v11);
      if (a.deadline_us == 0) usage_error(arg);
    } else if (const char* v12 = value("--key-domain=")) {
      // Exactly the two registered domain names; "Bytes", "byte", or an
      // empty value are config typos, not requests.
      if (std::strcmp(v12, "u64") != 0 && std::strcmp(v12, "bytes") != 0) {
        usage_error(arg);
      }
      a.key_domain = v12;
    } else if (const char* v13 = value("--scan-len=")) {
      const std::uint64_t n = parse_u64(arg, v13);
      // 0 would silently degenerate every scan; huge values are config bugs.
      if (n == 0 || n > (1u << 20)) usage_error(arg);
      a.scan_len = static_cast<std::uint32_t>(n);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else {
      usage_error(arg);
    }
  }
  return a;
}

}  // namespace euno::stats
