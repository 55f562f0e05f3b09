#include "span_recorder.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {

SpanRecorder::SpanRecorder() : origin_ns_(NowNs()) { spans_.reserve(4096); }

u16 SpanRecorder::Intern(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    return it->second;
  }
  const u16 id = static_cast<u16>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

u32 SpanRecorder::Begin(const std::string& name) {
  const u64 now = NowNs();
  const u32 id = Add(name, now, now, open_.empty() ? kNone : open_.back());
  if (id != kNone) {
    open_.push_back(id);
  }
  return id;
}

void SpanRecorder::End(u32 id) {
  if (id != kNone) {
    spans_[id - 1].end_ns = NowNs();
    open_.pop_back();
  }
}

u32 SpanRecorder::Add(const std::string& name, u64 start_ns, u64 end_ns,
                      u32 parent, u64 burst, u32 track) {
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return kNone;
  }
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.track = track;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.burst = burst;
  spans_.push_back(span);
  return static_cast<u32>(spans_.size());
}

std::map<std::string, double> SpanRecorder::SelfNs() const {
  std::vector<std::vector<std::pair<u64, u64>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<u64, u64>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    u64 covered = 0;
    u64 reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const u64 from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    const u64 duration = spans_[i].end_ns - spans_[i].start_ns;
    out[names_[spans_[i].name]] +=
        static_cast<double>(duration - std::min(covered, duration));
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& process_name) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write trace %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %u, \"burst\": %llu}}",
                 names_[s.name].c_str(), s.track + 1,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<unsigned long long>(s.burst));
  }
  std::fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %llu, "
                  "\"self_ns\": {",
               static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const auto& [name, ns] : SelfNs()) {
    std::fprintf(f, "%s\"%s\": %.0f", first ? "" : ", ", name.c_str(), ns);
    first = false;
  }
  std::fprintf(f, "}}}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
