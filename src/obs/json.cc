#include "obs/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mpq::obs {

// ---------------------------------------------------------------------------
// Writing

void AppendJsonString(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char ch : text) {
    const unsigned char byte = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", byte);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_.push_back(',');
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!needs_comma_.empty() && !pending_key_);
  if (needs_comma_.back()) out_.push_back(',');
  needs_comma_.back() = true;
  AppendJsonString(out_, key);
  out_.push_back(':');
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendJsonString(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

void JsonWriter::Clear() {
  out_.clear();
  needs_comma_.clear();
  pending_key_ = false;
}

// ---------------------------------------------------------------------------
// Parsing

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseValue(JsonValue& out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        if (!ParseString(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (!Consume("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!Consume("false")) return false;
        out = JsonValue(false);
        return true;
      case 'n':
        if (!Consume("null")) return false;
        out = JsonValue(nullptr);
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool AtEnd() {
    SkipWhitespace();
    return pos_ >= text_.size();
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool ParseObject(JsonValue& out) {
    ++pos_;  // '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out = JsonValue(std::move(object));
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(value)) return false;
      object.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        out = JsonValue(std::move(object));
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue& out) {
    ++pos_;  // '['
    JsonValue::Array array;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out = JsonValue(std::move(array));
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(value)) return false;
      array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        out = JsonValue(std::move(array));
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (ch == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char hex = text_[pos_ + i];
              code <<= 4;
              if (hex >= '0' && hex <= '9') {
                code |= static_cast<unsigned>(hex - '0');
              } else if (hex >= 'a' && hex <= 'f') {
                code |= static_cast<unsigned>(hex - 'a' + 10);
              } else if (hex >= 'A' && hex <= 'F') {
                code |= static_cast<unsigned>(hex - 'A' + 10);
              } else {
                return false;
              }
            }
            pos_ += 4;
            // This library only ever writes \u00XX (control characters);
            // decode the basic-multilingual-plane code point as UTF-8 so
            // foreign traces parse too.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return false;
        }
        continue;
      }
      out.push_back(ch);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out = JsonValue(value);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const std::string kEmptyString;
const JsonValue::Array kEmptyArray;

}  // namespace

bool JsonValue::AsBool(bool fallback) const {
  const bool* b = std::get_if<bool>(&value_);
  return b != nullptr ? *b : fallback;
}

double JsonValue::AsDouble(double fallback) const {
  const double* d = std::get_if<double>(&value_);
  return d != nullptr ? *d : fallback;
}

std::int64_t JsonValue::AsInt(std::int64_t fallback) const {
  const double* d = std::get_if<double>(&value_);
  return d != nullptr ? static_cast<std::int64_t>(*d) : fallback;
}

const std::string& JsonValue::AsString() const {
  const std::string* s = std::get_if<std::string>(&value_);
  return s != nullptr ? *s : kEmptyString;
}

const JsonValue::Array& JsonValue::AsArray() const {
  const Array* a = std::get_if<Array>(&value_);
  return a != nullptr ? *a : kEmptyArray;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

std::optional<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser parser(text);
  JsonValue value;
  if (!parser.ParseValue(value)) return std::nullopt;
  if (!parser.AtEnd()) return std::nullopt;
  return value;
}

}  // namespace mpq::obs
