#include "harness/sweep_runner.h"

#include <algorithm>
#include <cstdio>
#include <future>

namespace hxwar::harness {
namespace {

// Applies the ordered stop-at-saturation reduction to one wave of completed
// points. Returns true once the curve has ended (cut reached).
bool reduceWave(std::vector<SweepPoint>&& wave, bool stopAtSaturation,
                std::vector<SweepPoint>& out, std::uint32_t& saturatedStreak) {
  for (auto& point : wave) {
    out.push_back(std::move(point));
    saturatedStreak = out.back().result.saturated ? saturatedStreak + 1 : 0;
    if (stopAtSaturation && saturatedStreak >= 2) return true;
  }
  return false;
}

// Minimal JSON string escaping for error messages (quotes, backslashes,
// control characters). Series names and statuses are identifier-like and
// never need it, but failure messages quote arbitrary CHECK text.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<SweepPoint> runLoadSweep(const ExperimentSpec& base,
                                     const std::vector<double>& loads,
                                     const SweepOptions& options) {
  if (options.jobs <= 1) return runLoadSweep(base, loads, options, nullptr);
  ThreadPool pool(options.jobs);
  return runLoadSweep(base, loads, options, &pool);
}

std::vector<SweepPoint> runLoadSweep(const ExperimentSpec& base,
                                     const std::vector<double>& loads,
                                     const SweepOptions& options, ThreadPool* pool) {
  if (pool == nullptr || pool->size() <= 1) {
    return loadLatencySweep(base, loads, options.stopAtSaturation);
  }
  // Speculate one wave of points past the reduction frontier: points beyond
  // the saturation cut are computed and discarded, so the returned series is
  // byte-identical to the serial path.
  const std::size_t waveSize =
      std::max<std::size_t>(std::size_t{pool->size()} * std::max(1u, options.waveFactor), 1);
  std::vector<SweepPoint> out;
  out.reserve(loads.size());
  std::uint32_t saturatedStreak = 0;
  for (std::size_t waveStart = 0; waveStart < loads.size(); waveStart += waveSize) {
    const std::size_t waveEnd = std::min(waveStart + waveSize, loads.size());
    std::vector<SweepPoint> wave = parallelMapOrdered(
        pool, waveEnd - waveStart, [&](std::size_t i) {
          const std::size_t index = waveStart + i;
          return runSweepPoint(base, loads[index], index);
        });
    if (reduceWave(std::move(wave), options.stopAtSaturation, out, saturatedStreak)) break;
  }
  return out;
}

void SweepPerfLog::add(const std::string& series, const SweepPoint& point) {
  entries_.push_back(Entry{series, point.load, point.result.saturated,
                           point.wallSeconds, point.eventsProcessed, point.eventsPerSec,
                           point.pointJobs, point.status, point.message});
  totalWall_ += point.wallSeconds;
  totalEvents_ += point.eventsProcessed;
}

void SweepPerfLog::addAll(const std::string& series, const std::vector<SweepPoint>& points) {
  for (const auto& p : points) add(series, p);
}

void SweepPerfLog::add(Entry entry) {
  totalWall_ += entry.wallSeconds;
  totalEvents_ += entry.events;
  entries_.push_back(std::move(entry));
}

bool SweepPerfLog::writeJson(const std::string& path, const std::string& bench,
                             const std::string& scale, unsigned jobs) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // totalWall_ sums per-point wall time across all workers; with jobs > 1 the
  // elapsed time is lower, so report the aggregate simulation rate too.
  const double aggRate = totalWall_ > 0.0 ? static_cast<double>(totalEvents_) / totalWall_ : 0.0;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n  \"jobs\": %u,\n",
               bench.c_str(), scale.c_str(), jobs);
  std::fprintf(f, "  \"points\": %zu,\n  \"total_events\": %llu,\n", entries_.size(),
               static_cast<unsigned long long>(totalEvents_));
  std::fprintf(f, "  \"total_point_wall_seconds\": %.6f,\n  \"events_per_second\": %.1f,\n",
               totalWall_, aggRate);
  std::fprintf(f, "  \"series\": [\n");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(f,
                 "    {\"series\": \"%s\", \"load\": %.6f, \"saturated\": %s, "
                 "\"wall_seconds\": %.6f, \"events\": %llu, \"events_per_second\": %.1f, "
                 "\"point_jobs\": %u, \"status\": \"%s\"",
                 e.series.c_str(), e.load, e.saturated ? "true" : "false", e.wallSeconds,
                 static_cast<unsigned long long>(e.events), e.eventsPerSec, e.pointJobs,
                 e.status.c_str());
    if (!e.message.empty()) {
      std::fprintf(f, ", \"message\": \"%s\"", jsonEscape(e.message).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace hxwar::harness
