#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

namespace dplearn {
namespace obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted its comma
  }
  if (!first_in_container_.empty()) {
    if (!first_in_container_.back()) out_ += ',';
    first_in_container_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_in_container_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  first_in_container_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_in_container_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  first_in_container_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!first_in_container_.empty()) {
    if (!first_in_container_.back()) out_ += ',';
    first_in_container_.back() = false;
  }
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const char* value) {
  return Value(std::string_view(value));
}

JsonWriter& JsonWriter::Value(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no NaN/Inf
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(int value) { return Value(static_cast<std::int64_t>(value)); }

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

}  // namespace obs
}  // namespace dplearn
