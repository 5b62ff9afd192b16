#include "sim/schedule.hpp"

#include <cstdio>
#include <limits>

#include "util/parse.hpp"

namespace euno::sim {

namespace {

const char* mode_tag(SchedulePolicy::Mode m) {
  switch (m) {
    case SchedulePolicy::Mode::kDeterministic: return "det";
    case SchedulePolicy::Mode::kRandom: return "rand";
    case SchedulePolicy::Mode::kSystematic: return "sys";
  }
  return "det";
}

}  // namespace

std::string SchedulePolicy::to_string() const {
  std::string s = mode_tag(mode);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",seed=%llu",
                static_cast<unsigned long long>(seed));
  s += buf;
  if (mode == Mode::kRandom) {
    std::snprintf(buf, sizeof(buf), ",preempt=%u", preempt_pct);
    s += buf;
  }
  if (preempt_on_tx_begin) s += ",txp=1";
  if (abort_storm_pct > 0) {
    std::snprintf(buf, sizeof(buf), ",storm=%u", abort_storm_pct);
    s += buf;
  }
  if (max_steps != 0) {
    std::snprintf(buf, sizeof(buf), ",steps=%llu",
                  static_cast<unsigned long long>(max_steps));
    s += buf;
  }
  if (mode == Mode::kSystematic && !choices.empty()) {
    s += ",choices=";
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i > 0) s += '.';
      std::snprintf(buf, sizeof(buf), "%u", choices[i]);
      s += buf;
    }
  }
  return s;
}

std::optional<SchedulePolicy> SchedulePolicy::parse(const std::string& str) {
  SchedulePolicy p;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= str.size()) {
    std::size_t comma = str.find(',', pos);
    if (comma == std::string::npos) comma = str.size();
    const std::string tok = str.substr(pos, comma - pos);
    pos = comma + 1;
    if (first) {
      first = false;
      if (tok == "det") {
        p.mode = Mode::kDeterministic;
      } else if (tok == "rand") {
        p.mode = Mode::kRandom;
      } else if (tok == "sys") {
        p.mode = Mode::kSystematic;
      } else {
        return std::nullopt;
      }
      if (pos > str.size()) break;
      continue;
    }
    if (tok.empty()) {
      if (pos > str.size()) break;
      return std::nullopt;
    }
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    std::uint64_t v = 0;
    if (key == "choices") {
      std::size_t cpos = 0;
      while (cpos <= val.size()) {
        std::size_t dot = val.find('.', cpos);
        if (dot == std::string::npos) dot = val.size();
        std::uint64_t c = 0;
        if (!parse_decimal_u64(val.substr(cpos, dot - cpos), &c) ||
            c > std::numeric_limits<std::uint32_t>::max()) {
          return std::nullopt;
        }
        p.choices.push_back(static_cast<std::uint32_t>(c));
        cpos = dot + 1;
        if (cpos > val.size()) break;
      }
      continue;
    }
    if (!parse_decimal_u64(val, &v)) return std::nullopt;
    if (key == "seed") {
      p.seed = v;
    } else if (key == "preempt") {
      // Percentages, bounded like lin_explore's --preempt/--storm flags.
      if (v > 100) return std::nullopt;
      p.preempt_pct = static_cast<std::uint32_t>(v);
    } else if (key == "txp") {
      if (v > 1) return std::nullopt;
      p.preempt_on_tx_begin = v == 1;
    } else if (key == "storm") {
      if (v > 100) return std::nullopt;
      p.abort_storm_pct = static_cast<std::uint32_t>(v);
    } else if (key == "steps") {
      p.max_steps = v;
    } else {
      return std::nullopt;
    }
  }
  return p;
}

}  // namespace euno::sim
