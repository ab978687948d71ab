#include "telemetry/json_check.hpp"

namespace dwatch::telemetry {

namespace {

constexpr std::size_t kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string reason;

  [[nodiscard]] bool fail(const char* what) {
    reason = what;
    reason += " at byte ";
    reason += std::to_string(pos);
    return false;
  }

  [[nodiscard]] bool eof() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    return true;
  }

  [[nodiscard]] bool string() {
    // Opening quote consumed by the caller check; pos sits on '"'.
    ++pos;  // '"'
    while (true) {
      if (eof()) return fail("unterminated string");
      const auto c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (eof()) return fail("unterminated escape");
        const char e = text[pos];
        if (e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
            e == 'n' || e == 'r' || e == 't') {
          ++pos;
        } else if (e == 'u') {
          ++pos;
          for (int i = 0; i < 4; ++i) {
            if (eof()) return fail("short \\u escape");
            const char h = text[pos];
            const bool hex = (h >= '0' && h <= '9') ||
                             (h >= 'a' && h <= 'f') || (h >= 'A' && h <= 'F');
            if (!hex) return fail("bad \\u escape");
            ++pos;
          }
        } else {
          return fail("bad escape");
        }
      } else if (c < 0x20) {
        return fail("raw control byte in string");
      } else {
        ++pos;
      }
    }
  }

  [[nodiscard]] bool number() {
    if (peek() == '-') ++pos;
    if (eof()) return fail("truncated number");
    if (peek() == '0') {
      ++pos;
    } else if (peek() >= '1' && peek() <= '9') {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    } else {
      return fail("bad number");
    }
    if (!eof() && peek() == '.') {
      ++pos;
      if (eof() || peek() < '0' || peek() > '9') return fail("bad fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      if (eof() || peek() < '0' || peek() > '9') return fail("bad exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    }
    return true;
  }

  [[nodiscard]] bool value(std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (eof()) return fail("missing value");
    const char c = peek();
    switch (c) {
      case '{': {
        ++pos;
        skip_ws();
        if (!eof() && peek() == '}') {
          ++pos;
          return true;
        }
        while (true) {
          skip_ws();
          if (eof() || peek() != '"') return fail("expected object key");
          if (!string()) return false;
          skip_ws();
          if (eof() || peek() != ':') return fail("expected ':'");
          ++pos;
          if (!value(depth + 1)) return false;
          skip_ws();
          if (eof()) return fail("unterminated object");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          if (peek() == '}') {
            ++pos;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos;
        skip_ws();
        if (!eof() && peek() == ']') {
          ++pos;
          return true;
        }
        while (true) {
          if (!value(depth + 1)) return false;
          skip_ws();
          if (eof()) return fail("unterminated array");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          if (peek() == ']') {
            ++pos;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return number();
        return fail("unexpected byte");
    }
  }
};

}  // namespace

bool json_valid(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  if (!p.value(0)) {
    if (error != nullptr) *error = p.reason;
    return false;
  }
  p.skip_ws();
  if (!p.eof()) {
    if (error != nullptr) {
      *error = "trailing bytes after value at byte " + std::to_string(p.pos);
    }
    return false;
  }
  return true;
}

bool json_lines_valid(std::string_view text, std::string* error) {
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    ++line_no;
    if (!line.empty() && !json_valid(line, error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + *error;
      }
      return false;
    }
    pos = eol + 1;
  }
  return true;
}

}  // namespace dwatch::telemetry
