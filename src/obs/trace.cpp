#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace peering::obs {

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

void EventTrace::set_capacity(std::size_t capacity) {
  ring_ = Ring<TraceEvent>(capacity);
  clear();
}

void EventTrace::emit(
    SimTime at, std::string_view category, std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        fields) {
  if (!enabled_ || ring_.capacity() == 0) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.at = at;
  event.category = std::string(category);
  event.name = std::string(name);
  event.fields.reserve(fields.size());
  for (const auto& [k, v] : fields) {
    event.fields.emplace_back(std::string(k), std::string(v));
  }
  if (ring_.push(std::move(event))) ++dropped_;
}

std::string EventTrace::to_jsonl() const {
  std::string out;
  out.reserve(ring_.size() * 96);
  for_each([&out](const TraceEvent& event) {
    char buf[32];
    out += "{\"seq\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, event.seq);
    out += buf;
    out += ",\"t_ns\":";
    std::snprintf(buf, sizeof(buf), "%" PRId64, event.at.ns());
    out += buf;
    out += ",\"cat\":\"";
    append_json_escaped(out, event.category);
    out += "\",\"event\":\"";
    append_json_escaped(out, event.name);
    out += "\"";
    for (const auto& [k, v] : event.fields) {
      out += ",\"";
      append_json_escaped(out, k);
      out += "\":\"";
      append_json_escaped(out, v);
      out += "\"";
    }
    out += "}\n";
  });
  return out;
}

void EventTrace::clear() {
  ring_.clear();
  dropped_ = 0;
}

}  // namespace peering::obs
