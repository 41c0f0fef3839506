#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace ppn {

bool JsonValue::AsBool() const {
  PPN_CHECK(is_bool()) << "JSON value is not a bool";
  return bool_;
}

double JsonValue::AsNumber() const {
  PPN_CHECK(is_number()) << "JSON value is not a number";
  return number_;
}

const std::string& JsonValue::AsString() const {
  PPN_CHECK(is_string()) << "JSON value is not a string";
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  PPN_CHECK(is_array()) << "JSON value is not an array";
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::AsObject()
    const {
  PPN_CHECK(is_object()) << "JSON value is not an object";
  return object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  PPN_CHECK(is_object()) << "JSON value is not an object";
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  if (!is_object()) return fallback;
  const JsonValue* member = Find(key);
  return member != nullptr && member->is_number() ? member->number_ : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  if (!is_object()) return fallback;
  const JsonValue* member = Find(key);
  return member != nullptr && member->is_string() ? member->string_ : fallback;
}

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser state over the input span.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWhitespace();
    if (!ParseValue(out)) {
      Fill(error);
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      error_ = "trailing content after JSON value";
      Fill(error);
      return false;
    }
    return true;
  }

 private:
  void Fill(std::string* error) const {
    if (error != nullptr) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
  }

  bool Fail(const std::string& message) {
    error_ = message;
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    // Nesting is bounded to keep hostile/corrupt input from overflowing
    // the stack; our own telemetry files nest 4-5 levels deep.
    if (++depth_ > 64) return Fail("nesting too deep");
    bool ok = ParseValueInner(out);
    --depth_;
    return ok;
  }

  bool ParseValueInner(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string value;
        if (!ParseString(&value)) return false;
        *out = JsonValue::MakeString(std::move(value));
        return true;
      }
      case 't':
        if (!ConsumeLiteral("true")) return false;
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return false;
        *out = JsonValue::MakeBool(false);
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return false;
        *out = JsonValue::MakeNull();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::MakeArray(std::move(items));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      items.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::MakeArray(std::move(items));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  /// Appends a Unicode code point as UTF-8.
  static void AppendCodePoint(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Fail("invalid \\u escape digit");
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("truncated escape");
        const char escape = text_[pos_++];
        switch (escape) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            if (!ParseHex4(&cp)) return false;
            // Surrogate pair: a high surrogate must be followed by \uDC00..
            if (cp >= 0xD800 && cp <= 0xDBFF &&
                text_.substr(pos_, 2) == "\\u") {
              pos_ += 2;
              uint32_t low = 0;
              if (!ParseHex4(&low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return Fail("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            }
            AppendCodePoint(cp, out);
            break;
          }
          default:
            return Fail("unknown escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start) return Fail("invalid value");
    // strtod over the bounded substring: from_chars<double> is not
    // universally available on the toolchains this builds with.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("malformed number");
    *out = JsonValue::MakeNumber(value);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_ = "parse error";
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  PPN_CHECK(out != nullptr);
  return Parser(text).Parse(out, error);
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

}  // namespace ppn
