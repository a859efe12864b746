#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

namespace tabular::bench {

namespace {

/// Sequential reader over the fixed layout `obs::Tracing::ToJson` writes.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool Uint(uint64_t* v) {
    const size_t start = pos_;
    *v = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      *v = *v * 10 + static_cast<uint64_t>(text_[pos_] - '0');
      ++pos_;
    }
    return pos_ > start;
  }

  /// "<micros>.<3 digits>" → nanoseconds.
  bool Micros(uint64_t* ns) {
    uint64_t whole = 0, frac = 0;
    if (!Uint(&whole) || !Expect(".")) return false;
    const size_t start = pos_;
    if (!Uint(&frac) || pos_ - start != 3) return false;
    *ns = whole * 1000 + frac;
    return true;
  }

  bool String(std::string* s) {
    if (!Expect("\"")) return false;
    s->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        s->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case 'n': s->push_back('\n'); break;
        case 'r': s->push_back('\r'); break;
        case 't': s->push_back('\t'); break;
        case 'u':
          // Only control characters are \u-escaped by the exporter.
          if (pos_ + 4 > text_.size()) return false;
          s->push_back(static_cast<char>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16)));
          pos_ += 4;
          break;
        default: s->push_back(e);
      }
    }
    return false;
  }

  size_t Find(std::string_view needle) const {
    return text_.find(needle, pos_);
  }
  void Seek(size_t pos) { pos_ = pos; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool ParseEvent(Cursor& cur, Span* span) {
  uint64_t pid = 0, tid = 0;
  if (!cur.Expect("{\"ph\":\"X\",\"pid\":") || !cur.Uint(&pid) ||
      !cur.Expect(",\"tid\":") || !cur.Uint(&tid) ||
      !cur.Expect(",\"ts\":") || !cur.Micros(&span->start_ns) ||
      !cur.Expect(",\"dur\":") || !cur.Micros(&span->dur_ns) ||
      !cur.Expect(",\"name\":") || !cur.String(&span->name) ||
      !cur.Expect(",\"cat\":") || !cur.String(&span->category)) {
    return false;
  }
  span->tid = static_cast<uint32_t>(tid);
  if (cur.Expect(",\"args\":{")) {
    bool first = true;
    while (!cur.Expect("}")) {
      if (!first && !cur.Expect(",")) return false;
      first = false;
      std::string key;
      uint64_t value = 0;
      if (!cur.String(&key) || !cur.Expect(":") || !cur.Uint(&value)) {
        return false;
      }
      span->args[key] = value;
    }
  }
  return cur.Expect("}");
}

/// Links every span to the innermost span of its thread that contains it.
void LinkParents(std::vector<Span>* spans) {
  std::vector<size_t> order(spans->size());
  std::iota(order.begin(), order.end(), 0);
  const std::vector<Span>& s = *spans;
  std::sort(order.begin(), order.end(), [&s](size_t a, size_t b) {
    if (s[a].tid != s[b].tid) return s[a].tid < s[b].tid;
    if (s[a].start_ns != s[b].start_ns) return s[a].start_ns < s[b].start_ns;
    return s[a].end_ns() > s[b].end_ns();  // enclosing span first
  });
  std::vector<size_t> open;
  uint32_t tid = 0;
  for (size_t i : order) {
    Span& span = (*spans)[i];
    if (open.empty() || span.tid != tid) {
      open.clear();
      tid = span.tid;
    }
    while (!open.empty() && (*spans)[open.back()].end_ns() < span.end_ns()) {
      open.pop_back();
    }
    span.parent = open.empty() ? -1 : static_cast<int64_t>(open.back());
    if (!open.empty()) (*spans)[open.back()].children.push_back(i);
    open.push_back(i);
  }
}

}  // namespace

bool ParseTrace(std::string_view json, std::vector<Span>* spans) {
  spans->clear();
  Cursor cur(json);
  for (;;) {
    const size_t at = cur.Find("{\"ph\":\"X\"");
    if (at == std::string_view::npos) break;
    cur.Seek(at);
    Span span;
    if (!ParseEvent(cur, &span)) return false;
    spans->push_back(std::move(span));
  }
  LinkParents(spans);
  return true;
}

uint64_t ChildNs(const std::vector<Span>& spans, size_t i,
                 const std::vector<std::string>& names) {
  uint64_t total = 0;
  for (size_t c : spans[i].children) {
    const Span& s = spans[c];
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      total += s.dur_ns;
    }
  }
  return total;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  seen_ += other.seen_;
  sorted_ = false;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const size_t n = values_.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return values_[rank - 1];
}

}  // namespace tabular::bench
