// Minimal streaming JSON writer for the benchmark's result line and its
// per-workload detail files. Numbers use std::to_chars (shortest form that
// round-trips), so every measured digit is kept.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Json {
public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(std::string_view k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Json& str(std::string_view v) {
    comma();
    quote(v);
    return *this;
  }

  Json& num(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, r.ptr);
    return *this;
  }

  Json& num(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }

  Json& num(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }

  Json& boolean(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }

  /// Splice an already-serialized JSON value.
  Json& raw(std::string_view v) {
    comma();
    out_ += v;
    return *this;
  }

  const std::string& text() const { return out_; }

private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char b[8];
            std::snprintf(b, sizeof b, "\\u%04x", c);
            out_ += b;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
