#include "srs/common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "srs/common/logging.h"

namespace srs {

namespace {

constexpr int kMaxDepth = 64;

}  // namespace

JsonValue::JsonValue(std::string v) : kind_(Kind::kString) {
  payload_.string = new std::string(std::move(v));
}

JsonValue::JsonValue(Kind kind) : kind_(kind) {
  if (kind == Kind::kArray) {
    payload_.array = new Array();
  } else {
    payload_.object = new Object();
  }
}

JsonValue::JsonValue(const JsonValue& other)
    : kind_(other.kind_), payload_(other.payload_) {
  switch (kind_) {
    case Kind::kString:
      payload_.string = new std::string(*other.payload_.string);
      break;
    case Kind::kArray:
      payload_.array = new Array(*other.payload_.array);
      break;
    case Kind::kObject:
      payload_.object = new Object(*other.payload_.object);
      break;
    default:
      break;
  }
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    // Detach `other` before releasing: it may live inside this value
    // (v = std::move(v.array()[0])).
    const Kind kind = other.kind_;
    const Payload payload = other.payload_;
    other.kind_ = Kind::kNull;
    if (kind_ >= Kind::kString) Release();
    kind_ = kind;
    payload_ = payload;
  }
  return *this;
}

void JsonValue::Release() {
  switch (kind_) {
    case Kind::kString:
      delete payload_.string;
      break;
    case Kind::kArray:
      delete payload_.array;
      break;
    case Kind::kObject:
      delete payload_.object;
      break;
    default:
      break;
  }
  kind_ = Kind::kNull;
}

bool JsonValue::AsBool() const {
  SRS_CHECK(is_bool()) << "JsonValue::AsBool on non-bool";
  return payload_.boolean;
}

double JsonValue::AsNumber() const {
  SRS_CHECK(is_number()) << "JsonValue::AsNumber on non-number";
  return payload_.number;
}

const std::string& JsonValue::AsString() const {
  SRS_CHECK(is_string()) << "JsonValue::AsString on non-string";
  return *payload_.string;
}

const JsonValue::Array& JsonValue::array() const {
  SRS_CHECK(is_array()) << "JsonValue::array on non-array";
  return *payload_.array;
}

JsonValue::Array& JsonValue::array() {
  SRS_CHECK(is_array()) << "JsonValue::array on non-array";
  return *payload_.array;
}

const JsonValue::Object& JsonValue::object() const {
  SRS_CHECK(is_object()) << "JsonValue::object on non-object";
  return *payload_.object;
}

JsonValue::Object& JsonValue::object() {
  SRS_CHECK(is_object()) << "JsonValue::object on non-object";
  return *payload_.object;
}

void JsonValue::Append(JsonValue v) { array().push_back(std::move(v)); }

void JsonValue::Set(std::string key, JsonValue v) {
  object().emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : *payload_.object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void EncodeString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void EncodeNumber(double v, std::string* out) {
  // Integers within the double-exact range print as integers so ids,
  // versions, and counts round-trip textually; everything else gets
  // shortest-guaranteed-round-trip digits.
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) <= 9.0e15) {
    char buf[24];
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
    SRS_CHECK(ec == std::errc());
    out->append(buf, end);
    return;
  }
  if (!std::isfinite(v)) {  // JSON has no inf/nan; null is the convention
    *out += "null";
    return;
  }
  // std::to_chars is locale-independent by specification; precision-17
  // general format produces the same bytes "%.17g" does in the C locale,
  // without a comma-decimal LC_NUMERIC ever leaking into the wire format.
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  SRS_CHECK(ec == std::errc());
  out->append(buf, end);
}

void EncodeValue(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += v.AsBool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      EncodeNumber(v.AsNumber(), out);
      return;
    case JsonValue::Kind::kString:
      EncodeString(v.AsString(), out);
      return;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& e : v.array()) {
        if (!first) out->push_back(',');
        first = false;
        EncodeValue(e, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.object()) {
        if (!first) out->push_back(',');
        first = false;
        EncodeString(key, out);
        out->push_back(':');
        EncodeValue(value, out);
      }
      out->push_back('}');
      return;
    }
  }
}

/// Strict recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    SRS_RETURN_NOT_OK(ParseValue(0, &value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("expected '" + std::string(literal) + "'");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        SRS_RETURN_NOT_OK(Expect("null"));
        *out = JsonValue();
        return Status::OK();
      case 't':
        SRS_RETURN_NOT_OK(Expect("true"));
        *out = JsonValue(true);
        return Status::OK();
      case 'f':
        SRS_RETURN_NOT_OK(Expect("false"));
        *out = JsonValue(false);
        return Status::OK();
      case '"': {
        std::string s;
        SRS_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue(std::move(s));
        return Status::OK();
      }
      case '[':
        return ParseArray(depth, out);
      case '{':
        return ParseObject(depth, out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    *out = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue element;
      SkipWhitespace();
      SRS_RETURN_NOT_OK(ParseValue(depth + 1, &element));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    *out = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      std::string key;
      SRS_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      JsonValue value;
      SRS_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
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

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\\'
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          SRS_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            SRS_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // std::from_chars parses C-locale-style numbers regardless of
    // LC_NUMERIC (strtod in a comma-decimal locale stops at the '.' and
    // rejects valid JSON), and reports out-of-range instead of silently
    // saturating to ±HUGE_VAL.
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(first, last, value, std::chars_format::general);
    if (ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      pos_ = start;
      return Error("number out of range '" + token + "'");
    }
    if (ec != std::errc() || end != last) {
      const std::string token(first, last);
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    *out = JsonValue(value);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::Encode() const {
  std::string out;
  EncodeValue(*this, &out);
  return out;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace srs
