#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace peering::obs {

namespace {

Labels canonical(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

char kind_tag(std::uint8_t kind) { return static_cast<char>('c' + kind); }

std::string family_key(std::uint8_t kind, std::string_view name) {
  std::string key;
  key.reserve(name.size() + 1);
  key.push_back(kind_tag(kind));
  key.append(name);
  return key;
}

std::string series_key(std::uint8_t kind, std::string_view name,
                       const Labels& labels) {
  std::string key = family_key(kind, name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('\x1e');
    key.append(v);
  }
  return key;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_escaped(out, k);
    out += "\":\"";
    append_json_escaped(out, v);
    out += "\"";
  }
  out += "}";
}

void append_labels_prometheus(std::string& out, const Labels& labels,
                              std::string_view extra_key = {},
                              std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out += "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    // Prometheus escaping: backslash, double-quote, newline.
    for (char c : v) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += "\"";
  }
  out += "}";
}

// Shared by Histogram::quantile and SeriesData::quantile: walk the sparse
// (inclusive upper bound, count) list until the target rank's bucket, then
// interpolate linearly inside it. The lower bound of a log2 bucket is
// recoverable from its upper bound alone: [0,0], or [(b>>1)+1, b].
std::uint64_t quantile_from_buckets(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& buckets,
    std::uint64_t total, double q) {
  if (total == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cumulative = 0;
  for (const auto& [bound, count] : buckets) {
    if (cumulative + count < rank) {
      cumulative += count;
      continue;
    }
    if (bound == 0) return 0;
    std::uint64_t lower = (bound >> 1) + 1;
    double frac = static_cast<double>(rank - cumulative) /
                  static_cast<double>(count);
    return lower + static_cast<std::uint64_t>(
                       static_cast<double>(bound - lower) * frac);
  }
  return buckets.back().first;
}

const char* kind_name(SeriesData::Kind kind) {
  switch (kind) {
    case SeriesData::Kind::kCounter:
      return "counter";
    case SeriesData::Kind::kGauge:
      return "gauge";
    case SeriesData::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

// --------------------------------------------------------------- Histogram

std::uint64_t Histogram::quantile(double q) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> nonempty;
  std::uint64_t total = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    std::uint64_t c = bucket(i);
    if (c != 0) {
      nonempty.emplace_back(bucket_upper_bound(i), c);
      total += c;
    }
  }
  return quantile_from_buckets(nonempty, total, q);
}

std::uint64_t SeriesData::quantile(double q) const {
  if (kind != Kind::kHistogram) return 0;
  return quantile_from_buckets(buckets, count, q);
}

// ---------------------------------------------------------------- Registry

Registry::Series* Registry::resolve(Kind kind, std::string_view name,
                                    const Labels& labels, bool timing) {
  Labels canon = canonical(labels);
  std::string key = series_key(static_cast<std::uint8_t>(kind), name, canon);
  auto it = series_.find(key);
  if (it != series_.end()) return &it->second;

  std::string fam = family_key(static_cast<std::uint8_t>(kind), name);
  std::size_t& fam_size = family_sizes_[fam];
  if (!canon.empty() && fam_size >= label_cap_) {
    // Collapse into the family's overflow series (exempt from the cap).
    Labels overflow{{"overflow", "true"}};
    std::string okey =
        series_key(static_cast<std::uint8_t>(kind), name, overflow);
    auto oit = series_.find(okey);
    if (oit != series_.end()) return &oit->second;
    key = std::move(okey);
    canon = std::move(overflow);
  } else {
    ++fam_size;
  }

  Series series;
  series.name = std::string(name);
  series.labels = std::move(canon);
  series.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      series.counter = &counters_.emplace_back();
      break;
    case Kind::kGauge:
      series.gauge = &gauges_.emplace_back();
      break;
    case Kind::kHistogram:
      series.histogram = &histograms_.emplace_back();
      series.histogram->timing_ = timing;
      break;
  }
  return &series_.emplace(std::move(key), std::move(series)).first->second;
}

Counter* Registry::counter(std::string_view name, const Labels& labels) {
  if (!enabled()) return nop_counter();
  return resolve(Kind::kCounter, name, labels, false)->counter;
}

Gauge* Registry::gauge(std::string_view name, const Labels& labels) {
  if (!enabled()) return nop_gauge();
  return resolve(Kind::kGauge, name, labels, false)->gauge;
}

Histogram* Registry::histogram(std::string_view name, const Labels& labels) {
  if (!enabled()) return nop_histogram();
  return resolve(Kind::kHistogram, name, labels, false)->histogram;
}

Histogram* Registry::timing_histogram(std::string_view name,
                                      const Labels& labels) {
  if (!enabled()) return nop_histogram();
  return resolve(Kind::kHistogram, name, labels, true)->histogram;
}

std::uint64_t Registry::add_collector(std::function<void(Registry&)> fn) {
  if (!enabled()) return 0;
  std::uint64_t token = next_collector_token_++;
  collectors_.emplace_back(token, std::move(fn));
  return token;
}

void Registry::remove_collector(std::uint64_t token) {
  if (token == 0) return;
  std::erase_if(collectors_,
                [token](const auto& entry) { return entry.first == token; });
}

Snapshot Registry::snapshot(SimTime at, const SnapshotOptions& opts) {
  // Collectors may register new series; run them before walking the map.
  // Iterate by index: a collector adding a collector is not supported, but
  // adding series is.
  for (std::size_t i = 0; i < collectors_.size(); ++i) {
    collectors_[i].second(*this);
  }

  Snapshot snap;
  snap.at = at;
  snap.series.reserve(series_.size());
  for (const auto& [key, series] : series_) {
    (void)key;
    SeriesData data;
    data.name = series.name;
    data.labels = series.labels;
    switch (series.kind) {
      case Kind::kCounter:
        data.kind = SeriesData::Kind::kCounter;
        data.value = static_cast<std::int64_t>(series.counter->value());
        break;
      case Kind::kGauge:
        data.kind = SeriesData::Kind::kGauge;
        data.value = series.gauge->value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *series.histogram;
        if (h.timing() && !opts.include_timing) continue;
        data.kind = SeriesData::Kind::kHistogram;
        data.timing = h.timing();
        data.count = h.count();
        data.sum = h.sum();
        for (int i = 0; i < Histogram::kBucketCount; ++i) {
          if (h.bucket(i) != 0) {
            data.buckets.emplace_back(Histogram::bucket_upper_bound(i),
                                      h.bucket(i));
          }
        }
        break;
      }
    }
    snap.series.push_back(std::move(data));
  }
  return snap;
}

Registry* Registry::global() { return install(nullptr); }

Registry* Registry::install(Registry* registry) {
  // One static slot; install(nullptr) is the read path.
  static Registry default_registry(false);
  static Registry* current = &default_registry;
  if (registry == nullptr) return current;
  Registry* previous = current;
  current = registry;
  return previous;
}

// The shared no-op instruments are function-local statics, demoted to dead
// before first use.
Counter* Registry::nop_counter() {
  static Counter c;
  static const bool dead = ((c.live_ = false), true);
  (void)dead;
  return &c;
}

Gauge* Registry::nop_gauge() {
  static Gauge g;
  static const bool dead = ((g.live_ = false), true);
  (void)dead;
  return &g;
}

Histogram* Registry::nop_histogram() {
  static Histogram h;
  static const bool dead = ((h.live_ = false), true);
  (void)dead;
  return &h;
}

// ---------------------------------------------------------------- Snapshot

const SeriesData* Snapshot::find(std::string_view name,
                                 const Labels& labels) const {
  Labels canon = canonical(labels);
  for (const auto& s : series) {
    if (s.name == name && s.labels == canon) return &s;
  }
  return nullptr;
}

std::int64_t Snapshot::value(std::string_view name, const Labels& labels,
                             std::int64_t fallback) const {
  const SeriesData* s = find(name, labels);
  return s != nullptr ? s->value : fallback;
}

std::int64_t Snapshot::total(std::string_view name) const {
  std::int64_t sum = 0;
  for (const auto& s : series) {
    if (s.name == name && s.kind != SeriesData::Kind::kHistogram) {
      sum += s.value;
    }
  }
  return sum;
}

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(series.size() * 96 + 64);
  out += "{\n  \"sim_time_ns\": ";
  append_i64(out, at.ns());
  out += ",\n  \"series\": [\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const SeriesData& s = series[i];
    out += "    {\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"type\":\"";
    out += kind_name(s.kind);
    out += "\"";
    if (!s.labels.empty()) {
      out += ",\"labels\":";
      append_labels_json(out, s.labels);
    }
    if (s.kind == SeriesData::Kind::kHistogram) {
      out += ",\"count\":";
      append_u64(out, s.count);
      out += ",\"sum\":";
      append_u64(out, s.sum);
      out += ",\"buckets\":[";
      for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        if (b != 0) out += ",";
        out += "[";
        append_u64(out, s.buckets[b].first);
        out += ",";
        append_u64(out, s.buckets[b].second);
        out += "]";
      }
      out += "]";
    } else {
      out += ",\"value\":";
      append_i64(out, s.value);
    }
    out += i + 1 < series.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string Snapshot::to_prometheus() const {
  std::string out;
  out.reserve(series.size() * 80 + 64);
  std::string_view last_family;
  for (const auto& s : series) {
    // One TYPE line per family; series of one family are adjacent because
    // the registry orders by (kind, name, labels).
    if (s.name != last_family) {
      out += "# HELP ";
      out += s.name;
      out += " ";
      out += kind_name(s.kind);
      out += " series exported by the peering simulator\n";
      out += "# TYPE ";
      out += s.name;
      out += " ";
      out += kind_name(s.kind);
      out += "\n";
      last_family = s.name;
    }
    if (s.kind == SeriesData::Kind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (const auto& [bound, count] : s.buckets) {
        cumulative += count;
        out += s.name;
        out += "_bucket";
        std::string le;
        append_u64(le, bound);
        append_labels_prometheus(out, s.labels, "le", le);
        out += " ";
        append_u64(out, cumulative);
        out += "\n";
      }
      out += s.name;
      out += "_bucket";
      append_labels_prometheus(out, s.labels, "le", "+Inf");
      out += " ";
      append_u64(out, s.count);
      out += "\n";
      out += s.name;
      out += "_sum";
      append_labels_prometheus(out, s.labels);
      out += " ";
      append_u64(out, s.sum);
      out += "\n";
      out += s.name;
      out += "_count";
      append_labels_prometheus(out, s.labels);
      out += " ";
      append_u64(out, s.count);
      out += "\n";
    } else {
      out += s.name;
      append_labels_prometheus(out, s.labels);
      out += " ";
      append_i64(out, s.value);
      out += "\n";
    }
  }
  return out;
}

}  // namespace peering::obs
